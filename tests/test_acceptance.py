"""Release acceptance battery.

One test per shipping criterion; each records a single PASS/FAIL line
(flushed into the terminal summary by conftest) so a full run reads as
a checklist.  Training-backed criteria share module-scoped fixtures to
keep the battery inside its time budgets.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from conftest import CRITERION_LINES

from reserve_rl.agent import (
    N_ACTIONS,
    OBS_DIM,
    AgentParams,
    Batch,
    PPOConfig,
    init_agent,
    ppo_loss_and_grads,
    train_curriculum,
)
from reserve_rl.baselines import (
    bootstrap_chain_ladder,
    chain_ladder_targets,
    chain_ladder_ultimates,
    static_model,
)
from reserve_rl.cli import main as cli_main
from reserve_rl.config import FLOOR_FORMS
from reserve_rl.env import HOLD_ACTION, EnvConfig, EnvFactory, ReserveEnv
from reserve_rl.evaluate import (
    drawn_conditions,
    evaluate_models,
    greedy_model,
    regime_conditions,
    sensitivity_sweep,
    stress_conditions,
)
from reserve_rl.regimes import (
    DEFAULT_REGIME_TABLE,
    REGIME_NAMES,
    CurriculumSchedule,
    FixedShock,
    Stochastic,
    interpolate,
    sample_shock,
)
from reserve_rl.risk import (
    ShortfallBuffer,
    adaptive_alpha,
    cvar_rockafellar_oracle,
    empirical_cvar,
    tail_estimate,
)
from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import age_to_age_factors, write_triangle_csv

SEEDS5 = (1, 2, 3, 4, 5)

#: Training processes for the training-backed criteria: the usable cores.
WORKERS = len(os.sched_getaffinity(0))

#: Optimizer cadence for the training-backed criteria: the reference
#: step size with batches sized to the small synthetic book.
STABLE = PPOConfig(learning_rate=3e-4, batch_size=100, minibatch_size=50)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def env_factories(bundle, alpha=None, floor=FLOOR_FORMS["default"]):
    """(train, eval) environment factories over the shared data bundle."""
    cfg = EnvConfig(horizon=bundle.horizon, alpha=alpha, floor=floor)
    return (EnvFactory(bundle.train, bundle.factors, cfg),
            EnvFactory(bundle.test, bundle.factors, cfg))


# --- criterion 1: tail estimator vs. the variational oracle --------------------

def test_criterion_01_cvar_matches_rockafellar_oracle():
    """Whenever (1 - alpha) * N is an integer, the mean of the top
    (1 - alpha) * N samples equals the variational oracle exactly, and
    the tie-inclusive buffer estimate never exceeds it."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    max_err = 0.0
    dominance_ok = True
    for _ in range(1000):
        n = int(rng.integers(20, 1025))
        k = int(rng.integers(1, max(2, n // 20) + 1))
        alpha = 1.0 - k / n
        if rng.uniform() < 0.5:
            samples = rng.gamma(2.0, 1.0, size=n)
        else:
            samples = rng.integers(0, 50, size=n).astype(float)  # heavy ties
        oracle = cvar_rockafellar_oracle(samples, alpha)
        topk = float(np.sort(samples)[-k:].mean())
        max_err = max(max_err, abs(topk - oracle))
        dominance_ok &= tail_estimate(samples, alpha).cvar <= oracle + 1e-9
    elapsed = time.perf_counter() - t0
    ok = max_err < 1e-9 and dominance_ok and elapsed < 10.0
    _report(1, ok, f"1000 buffers, max |top-k mean - oracle| {max_err:.2e}, "
                   f"estimate <= oracle {dominance_ok}, {elapsed:.1f}s")


# --- criterion 2: classical reserving on the hand-worked triangle --------------

def test_criterion_02_chain_ladder_hand_values(textbook_triangle):
    t0 = time.perf_counter()
    factors = age_to_age_factors(textbook_triangle)
    factor_err = max(
        abs(factors.factors[0] - 1.5), abs(factors.factors[1] - 7.0 / 6.0)
    )
    rows = chain_ladder_ultimates(textbook_triangle, factors)
    expected = {2001: 0.0, 2002: 27.5, 2003: 90.0}
    reserve_err = max(abs(r.reserve - expected[r.accident_year]) for r in rows)
    total = sum(expected.values())
    boot = bootstrap_chain_ladder(textbook_triangle, 1000, np.random.default_rng(2))
    boot_rel = abs(boot.mean - total) / total
    elapsed = time.perf_counter() - t0
    ok = factor_err < 1e-9 and reserve_err < 1e-9 and boot_rel <= 0.05 and elapsed < 5.0
    _report(2, ok, f"factor err {factor_err:.1e}, reserve err {reserve_err:.1e}, "
                   f"bootstrap mean off by {boot_rel:.2%} at 1000 sims, {elapsed:.1f}s")


# --- criterion 3: analytic gradients vs. finite differences --------------------

def test_criterion_03_gradient_check():
    rng = np.random.default_rng(33)
    config = PPOConfig(batch_size=10, minibatch_size=10)
    eps = 1e-5
    max_rel = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        agent = init_agent(rng, config)
        policy, value = agent.policy, agent.value
        assert all(np.shares_memory(a, agent.vector) for a in agent.layers())
        batch = Batch(
            obs=rng.normal(size=(10, OBS_DIM)),
            actions=rng.integers(0, N_ACTIONS, size=10),
            old_logp=np.log(rng.uniform(0.1, 0.9, size=10)),
            advantages=rng.normal(size=10),
            returns=rng.normal(size=10),
            values=np.zeros(10),  # not read by the loss; drawing it would move the rng
        )
        grads = AgentParams.empty_like(policy, value)
        probe_grads = AgentParams.empty_like(policy, value)
        ppo_loss_and_grads(agent, batch, config, grads)
        for params, net_grads in ((policy, grads.policy), (value, grads.value)):
            for arr, garr in zip(params.layers(), net_grads.layers()):
                for i in range(0, arr.size, max(1, arr.size // 4)):
                    orig = arr.flat[i]
                    arr.flat[i] = orig + eps
                    up = ppo_loss_and_grads(agent, batch, config, probe_grads)[0]
                    arr.flat[i] = orig - eps
                    down = ppo_loss_and_grads(agent, batch, config, probe_grads)[0]
                    arr.flat[i] = orig
                    fd = (up - down) / (2 * eps)
                    rel = abs(garr.flat[i] - fd) / max(abs(garr.flat[i]), abs(fd), 1e-6)
                    max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-4 and elapsed < 30.0
    _report(3, ok, f"50 batches, max relative gradient error {max_rel:.2e}, {elapsed:.1f}s")


# --- criterion 4: environment algebra ------------------------------------------

def test_criterion_04_environment_algebra(bundle):
    t0 = time.perf_counter()
    steps = 0

    # reward decomposition + adequacy identity under random actions,
    # with the tail term reproduced from an independent mirror buffer
    cfg = EnvConfig(horizon=bundle.horizon)
    env, env_rng = ReserveEnv(bundle.train, bundle.factors, cfg), np.random.default_rng(404)
    mirror = ShortfallBuffer(capacity=cfg.buffer_capacity, warmup_min=cfg.warmup_min)
    act_rng = np.random.default_rng(405)
    max_reward_err = 0.0
    max_adequacy_err = 0.0
    for _ in range(1000):
        env.reset(env_rng, Stochastic(2))
        for _ in range(env.horizon):
            outcome = env.step(int(act_rng.integers(0, N_ACTIONS)))
            s = outcome.state
            shortfall = max(0.0, s.loss - s.reserve)
            mirror.push(shortfall)
            cvar = empirical_cvar(mirror, adaptive_alpha(s.volatility)).cvar
            floor = cfg.floor[0] + cfg.floor[1] * s.volatility
            violated = 1.0 if s.reserve < floor else 0.0
            expected = -(
                cfg.w_shortfall * shortfall
                + cfg.w_cvar * cvar
                + cfg.w_inefficiency * abs(s.reserve - s.loss)
                + cfg.w_floor * violated
            )
            max_reward_err = max(max_reward_err, abs(outcome.reward - expected))
            max_adequacy_err = max(
                max_adequacy_err, abs(s.adequacy - (1.0 - abs(s.reserve - s.loss)))
            )
            steps += 1

    # violation memory follows 1 - 0.95^t when every step breaches
    mem_cfg = EnvConfig(horizon=bundle.horizon, floor=(10.0, 0.0))
    mem_env, mem_rng = ReserveEnv(bundle.train, bundle.factors, mem_cfg), np.random.default_rng(406)
    max_memory_err = 0.0
    for _ in range(4):
        mem_env.reset(mem_rng, Stochastic(0))
        for _ in range(mem_env.horizon):
            s = mem_env.step(HOLD_ACTION).state
            max_memory_err = max(
                max_memory_err, abs(s.violation_memory - (1.0 - 0.95 ** s.t))
            )
            steps += 1

    # noiseless unit shocks reduce development to the chain-ladder path
    det_cfg = EnvConfig(horizon=bundle.horizon, noise_gain=0.0)
    det_env, det_rng = ReserveEnv(bundle.train, bundle.factors, det_cfg), np.random.default_rng(407)
    profile = bundle.factors.cumulative_profile(bundle.horizon + 1)
    max_path_err = 0.0
    for _ in range(4):
        state = det_env.reset(det_rng, FixedShock(1.0))
        initial = state.loss
        for t in range(det_env.horizon):
            s = det_env.step(HOLD_ACTION).state
            max_path_err = max(max_path_err, abs(s.loss - initial * profile[t + 1]))
            steps += 1

    elapsed = time.perf_counter() - t0
    worst = max(max_reward_err, max_adequacy_err, max_memory_err, max_path_err)
    ok = steps >= 10_000 and worst < 1e-12 and elapsed < 10.0
    _report(4, ok, f"{steps} steps, reward err {max_reward_err:.1e}, adequacy err "
                   f"{max_adequacy_err:.1e}, memory err {max_memory_err:.1e}, "
                   f"noiseless path err {max_path_err:.1e}, {elapsed:.1f}s")


# --- criterion 5: regime table, interpolation, sampler moments -----------------

def test_criterion_05_regime_severity():
    t0 = time.perf_counter()
    expected = {0: (1.0, 0.01), 1: (1.2, 0.04), 2: (1.5, 0.09), 3: (1.8, 0.16)}
    table_ok = set(DEFAULT_REGIME_TABLE) == set(expected) and all(
        DEFAULT_REGIME_TABLE[k].mu == mu and DEFAULT_REGIME_TABLE[k].var == var
        for k, (mu, var) in expected.items()
    )
    names_ok = REGIME_NAMES == {0: "calm", 1: "moderate", 2: "volatile", 3: "recession"}

    a, b = DEFAULT_REGIME_TABLE[1], DEFAULT_REGIME_TABLE[2]
    interp_ok = (
        interpolate(a, b, 0.0) == (a.mu, a.var)
        and interpolate(a, b, 1.0) == (b.mu, b.var)
    )

    rng = np.random.default_rng(0)
    worst_mean = 0.0
    worst_var_rel = 0.0
    for level in sorted(DEFAULT_REGIME_TABLE):
        spec = DEFAULT_REGIME_TABLE[level]
        draws = np.array([sample_shock(spec.mu, spec.var, rng) for _ in range(100_000)])
        worst_mean = max(worst_mean, abs(float(draws.mean()) - spec.mu))
        worst_var_rel = max(worst_var_rel, abs(float(draws.var()) / spec.var - 1.0))
    moments_ok = worst_mean <= 0.002 and worst_var_rel <= 0.10
    elapsed = time.perf_counter() - t0
    ok = table_ok and names_ok and interp_ok and moments_ok and elapsed < 10.0
    _report(5, ok, f"table exact {table_ok}, endpoints bitwise {interp_ok}, "
                   f"mean off {worst_mean:.4f} (<=0.002), var off {worst_var_rel:.2%} "
                   f"(<=10%) at 1e5 draws/level, {elapsed:.1f}s")


# --- criterion 6: the optimizer actually learns --------------------------------

@pytest.mark.slow
def test_criterion_06_training_improves_returns(bundle):
    config = PPOConfig(learning_rate=1e-3, batch_size=50, minibatch_size=25)
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=200, ramp_episodes=50)
    train_factory, _ = env_factories(bundle)
    t0 = time.perf_counter()
    runs = train_curriculum([(train_factory, config, schedule, seed) for seed in (1, 2, 3)],
                            WORKERS)
    elapsed = time.perf_counter() - t0
    margins = []
    for seed in (1, 2, 3):
        rewards = [row.mean_reward for run in runs for row in run.log if row.seed == seed]
        first = float(np.mean(rewards[:20]))
        last = float(np.mean(rewards[-20:]))
        margins.append((last - first) / (0.2 * abs(first)))
    ok = all(m >= 1.0 for m in margins) and elapsed < 600.0
    detail = ", ".join(f"seed {s}: margin {m:.2f}" for s, m in zip((1, 2, 3), margins))
    _report(6, ok, f"{detail} (each >= 1 means the final-20 mean beats the "
                   f"first-20 by >= 20% of |initial|), {elapsed:.0f}s")


# --- criteria 7 + 8 share fully curriculum-trained policies --------------------

@pytest.fixture(scope="module")
def full_run(bundle):
    train_factory, eval_factory = env_factories(bundle)
    schedule = CurriculumSchedule(levels=(0, 1, 2, 3), episodes_per_level=200,
                                  ramp_episodes=50)
    t0 = time.perf_counter()
    trained = train_curriculum([(train_factory, STABLE, schedule, seed) for seed in SEEDS5],
                               WORKERS)
    return {
        "policies": {run.seed: run.agent.policy for run in trained},
        "eval_factory": eval_factory,
        "train_seconds": time.perf_counter() - t0,
    }


@pytest.mark.slow
def test_criterion_07_stress_monotonicity(full_run):
    t0 = time.perf_counter()
    outcome = evaluate_models(
        {"rl_cvar": greedy_model(full_run["policies"])},
        full_run["eval_factory"],
        drawn_conditions(full_run["eval_factory"], stress_conditions((0.8, 1.0, 1.5, 2.0)), 100, 0),
        SEEDS5,
    )
    elapsed = full_run["train_seconds"] + (time.perf_counter() - t0)
    labels = ["shock:0.8", "shock:1", "shock:1.5", "shock:2"]
    rar = [outcome.seed_medians("rl_cvar", label).rar for label in labels]
    rvr = [outcome.seed_medians("rl_cvar", label).rvr for label in labels]
    inversions = []
    for prev, cur in zip(rar, rar[1:]):
        if cur > prev + 1e-12:
            inversions.append(cur - prev)          # adequacy should fall
    for prev, cur in zip(rvr, rvr[1:]):
        if cur < prev - 1e-12:
            inversions.append(prev - cur)          # violations should rise
    ok = (
        len(inversions) <= 1
        and all(mag <= 0.01 for mag in inversions)
        and elapsed < 1200.0
    )
    _report(7, ok, f"median RAR {[round(v, 4) for v in rar]} / RVR "
                   f"{[round(v, 4) for v in rvr]} across shocks 0.8->2.0, "
                   f"{len(inversions)} inversion(s), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_beats_chain_ladder_in_rough_regimes(full_run, bundle):
    t0 = time.perf_counter()
    outcome = evaluate_models(
        {
            "rl_cvar": greedy_model(full_run["policies"]),
            "chain_ladder": static_model(chain_ladder_targets(bundle.factors)),
        },
        full_run["eval_factory"],
        drawn_conditions(full_run["eval_factory"], regime_conditions((2, 3)), 100, 0),
        SEEDS5,
    )
    elapsed = full_run["train_seconds"] + (time.perf_counter() - t0)
    parts = []
    ok = elapsed < 1800.0
    for label in ("regime:2", "regime:3"):
        rl = outcome.seed_medians("rl_cvar", label)
        cl = outcome.seed_medians("chain_ladder", label)
        ok = ok and rl.cvar95 <= cl.cvar95 and rl.rvr <= cl.rvr
        parts.append(f"{label} cvar95 {rl.cvar95:.4f}<= {cl.cvar95:.4f}, "
                     f"rvr {rl.rvr:.4f}<= {cl.rvr:.4f}")
    _report(8, ok, f"paired-draw medians, {'; '.join(parts)}, {elapsed:.0f}s")


# --- criterion 9: generalization to an unseen regime ---------------------------

@pytest.mark.slow
def test_criterion_09_cold_regime(bundle):
    """Train on the benign regimes 0 and 1 only, then evaluate the policies
    and chain ladder (which never adapts anyway) in regime 3."""
    train_factory, eval_factory = env_factories(bundle)
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=200, ramp_episodes=50)
    t0 = time.perf_counter()
    trained = train_curriculum([(train_factory, STABLE, schedule, seed) for seed in SEEDS5],
                               WORKERS)
    outcome = evaluate_models(
        {
            "rl_cvar": greedy_model({run.seed: run.agent.policy for run in trained}),
            "chain_ladder": static_model(chain_ladder_targets(bundle.factors)),
        },
        eval_factory,
        drawn_conditions(eval_factory, regime_conditions((3,)), 100, 0),
        SEEDS5,
    )
    elapsed = time.perf_counter() - t0
    rl = outcome.seed_medians("rl_cvar", "regime:3")
    cl = outcome.seed_medians("chain_ladder", "regime:3")
    ok = np.isfinite(rl.rvr) and rl.rvr <= cl.rvr and elapsed < 1200.0
    _report(9, ok, f"trained on regimes (0,1), evaluated in regime 3: median RVR "
                   f"{rl.rvr:.4f} (finite) vs chain ladder {cl.rvr:.4f}, {elapsed:.0f}s")


# --- criterion 10: tail level and floor sensitivity ----------------------------

@pytest.fixture(scope="module")
def sweeps(bundle):
    """One sweep over four cells: three tail levels under the default
    floor and the strict floor at 0.95, all 20 trainings in one pool."""
    cells = {
        f"alpha:{alpha:g};floor:default": env_factories(bundle, alpha=alpha)
        for alpha in (0.90, 0.925, 0.95)
    }
    cells["alpha:0.95;floor:strict"] = env_factories(
        bundle, alpha=0.95, floor=FLOOR_FORMS["strict"]
    )
    schedule = CurriculumSchedule(levels=(0, 1, 2, 3), episodes_per_level=1200,
                                  ramp_episodes=50)
    levels = [Stochastic(level) for level in (0, 1, 2, 3)]
    [(_, paths)] = drawn_conditions(env_factories(bundle)[1], [("sweep", levels)], 50, 0)
    t0 = time.perf_counter()
    sweep = sensitivity_sweep(
        cells, STABLE, schedule,
        paths=paths,
        seeds=SEEDS5,
        lob="synthetic",
        workers=WORKERS,
    )
    return {"sweep": sweep, "seconds": time.perf_counter() - t0}


@pytest.mark.slow
def test_criterion_10_sensitivity_directions(sweeps):
    labels = ["alpha:0.9;floor:default", "alpha:0.925;floor:default",
              "alpha:0.95;floor:default"]
    rvr = [sweeps["sweep"].seed_medians("rl_cvar", label).rvr for label in labels]
    rvr_monotone = all(cur <= prev + 1e-12 for prev, cur in zip(rvr, rvr[1:]))

    strict = sweeps["sweep"].seed_medians("rl_cvar", "alpha:0.95;floor:strict")
    default = sweeps["sweep"].seed_medians("rl_cvar", "alpha:0.95;floor:default")
    floor_ok = strict.rvr <= default.rvr + 1e-12 and strict.ces < default.ces

    elapsed = sweeps["seconds"]
    ok = rvr_monotone and floor_ok and elapsed < 2700.0
    _report(10, ok, f"median RVR over alpha 0.9/0.925/0.95 {[round(v, 4) for v in rvr]} "
                    f"non-increasing {rvr_monotone}; strict floor rvr {strict.rvr:.4f}"
                    f"<= {default.rvr:.4f} and ces {strict.ces:.4f}< {default.ces:.4f}, "
                    f"{elapsed:.0f}s")


# --- criterion 11: rerun determinism -------------------------------------------

ACCEPTANCE_INI = """\
[run]
seeds = 1,2

[regimes]
levels = 0,1
episodes_per_level = 6
ramp_episodes = 2

[ppo]
batch_size = 30
minibatch_size = 15
epochs = 2
hidden = 8,8

[eval]
episodes = 2
regimes = 0,1
shocks = 1.0,1.5
sweep_alphas = 0.9
sweep_episodes_per_level = 2

[baselines]
bootstrap_sims = 30
"""


def _run_pipeline(config_path: str, triangle_csv: str, out: str) -> None:
    base = ["--config", config_path, "--out", out]
    commands = [
        ["ingest", "--triangle", triangle_csv],
        ["train"],
        ["evaluate", "--traces"],
        ["stress", "--traces"],
        ["baselines", "--triangle", triangle_csv],
        ["sensitivity"],
        ["report"],
    ]
    for argv in commands:
        assert cli_main(base + argv) == 0, argv


def _collect_artifacts(out: str):
    digests = {}
    manifests = {}
    for dirpath, _dirnames, filenames in os.walk(out):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, out)
            if name == "manifest.json":
                with open(full) as handle:
                    doc = json.load(handle)
                doc.pop("created_at", None)   # informational only
                manifests[rel] = doc
            else:
                with open(full, "rb") as handle:
                    digests[rel] = hashlib.sha256(handle.read()).hexdigest()
    return digests, manifests


def test_criterion_11_rerun_determinism(tmp_path, monkeypatch):
    config_path = str(tmp_path / "run.ini")
    with open(config_path, "w") as handle:
        handle.write(ACCEPTANCE_INI)
    triangle_csv = str(tmp_path / "triangle.csv")
    write_triangle_csv(make_synthetic_triangle(SyntheticSpec(), seed=0), triangle_csv)

    t0 = time.perf_counter()
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    _run_pipeline(config_path, triangle_csv, out_a)
    # The second run sees one usable core, so it trains, evaluates and stresses serially.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _run_pipeline(config_path, triangle_csv, out_b)
    elapsed = time.perf_counter() - t0

    digests_a, manifests_a = _collect_artifacts(out_a)
    digests_b, manifests_b = _collect_artifacts(out_b)
    ok = digests_a == digests_b and manifests_a == manifests_b and len(digests_a) > 0
    _report(11, ok, f"{len(digests_a)} artifacts byte-identical and "
                    f"{len(manifests_a)} manifests equal (timestamps aside) across "
                    f"two full pipeline runs, {elapsed:.0f}s")
