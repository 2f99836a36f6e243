"""Classical reserving baselines: hand-checked oracles and replay adapters."""

import numpy as np
import pytest

from reserve_rl.artifacts import write_records
from reserve_rl.baselines import (
    ReserveRow,
    _chase_action,
    _structural_zero_cells,
    bootstrap_chain_ladder,
    bootstrap_targets,
    bornhuetter_ferguson,
    bornhuetter_ferguson_targets,
    chain_ladder_targets,
    chain_ladder_ultimates,
    implied_loss_ratio,
    percent_developed,
    replay_static_policy,
)
from reserve_rl.env import HOLD_ACTION, EnvConfig, ReserveEnv
from reserve_rl.errors import DataError
from reserve_rl.regimes import FixedShock
from reserve_rl.triangles import (
    DevelopmentFactors,
    LossTriangle,
    age_to_age_factors,
    triangle_from_arrays,
)
from scalar_oracle import bootstrap_path, bornhuetter_ferguson_path, chain_ladder_path

# hand-worked 3x3 example: volume-weighted factors are exactly (1.5, 7/6)
# and every year carries the same 0.875 implied loss ratio.
TEXTBOOK_FACTORS = (1.5, 7.0 / 6.0)
TEXTBOOK_ULTIMATES = {2001: 175.0, 2002: 192.5, 2003: 210.0}
TEXTBOOK_RESERVES = {2001: 0.0, 2002: 27.5, 2003: 90.0}
TEXTBOOK_TOTAL_RESERVE = 117.5


def implied_loss_ratios_by_year(
    tri: LossTriangle, factors: DevelopmentFactors
) -> dict[int, float]:
    """Per-year chain-ladder implied loss ratios (ultimate / premium)."""
    ratios = {}
    for row in chain_ladder_ultimates(tri, factors):
        premium = tri.premium(row.accident_year)
        if premium <= 0.0:
            raise DataError(f"accident year {row.accident_year} has no premium")
        ratios[row.accident_year] = row.ultimate / premium
    return ratios


@pytest.fixture()
def textbook_factors(textbook_triangle):
    return age_to_age_factors(textbook_triangle)


def test_chain_ladder_hand_oracle(textbook_triangle, textbook_factors):
    rows = chain_ladder_ultimates(textbook_triangle, textbook_factors)
    assert [r.accident_year for r in rows] == [2001, 2002, 2003]
    assert all(r.method == "chain_ladder" for r in rows)
    for row in rows:
        assert row.ultimate == pytest.approx(TEXTBOOK_ULTIMATES[row.accident_year], abs=1e-9)
        assert row.reserve == pytest.approx(TEXTBOOK_RESERVES[row.accident_year], abs=1e-9)
        assert row.ultimate == pytest.approx(row.latest + row.reserve, abs=1e-12)
    assert rows[0].latest == 175.0
    assert rows[2].latest == 120.0


def test_chain_ladder_requires_factor_coverage(textbook_triangle):
    short = DevelopmentFactors(factors=(1.5,))
    with pytest.raises(DataError, match="1 factors cannot develop a 3-lag triangle"):
        chain_ladder_ultimates(textbook_triangle, short)


def test_percent_developed(textbook_factors):
    assert percent_developed(textbook_factors, 1) == pytest.approx(1.0 / 1.75, abs=1e-12)
    assert percent_developed(textbook_factors, 2) == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert percent_developed(textbook_factors, 3) == 1.0
    # lags beyond the observed end are fully developed
    assert percent_developed(textbook_factors, 7) == 1.0
    with pytest.raises(DataError, match="dev lag must be >= 1, got 0"):
        percent_developed(textbook_factors, 0)


def test_implied_loss_ratios(textbook_triangle, textbook_factors):
    pooled = implied_loss_ratio(textbook_triangle, textbook_factors)
    assert pooled == pytest.approx(577.5 / 660.0, abs=1e-12)
    by_year = implied_loss_ratios_by_year(textbook_triangle, textbook_factors)
    # the example triangle grows proportionally, so every year matches the pool
    assert by_year == pytest.approx({2001: 0.875, 2002: 0.875, 2003: 0.875}, abs=1e-12)


def test_bf_reproduces_chain_ladder_under_implied_elr(textbook_triangle, textbook_factors):
    """With chain-ladder implied ELRs the BF reserve collapses to chain ladder."""
    by_year = implied_loss_ratios_by_year(textbook_triangle, textbook_factors)
    bf_rows = bornhuetter_ferguson(textbook_triangle, textbook_factors, by_year)
    assert all(r.method == "bornhuetter_ferguson" for r in bf_rows)
    for row in bf_rows:
        assert row.reserve == pytest.approx(TEXTBOOK_RESERVES[row.accident_year], abs=1e-9)
    # pooled prior gives the same answer here because the triangle is proportional
    pooled_rows = bornhuetter_ferguson(textbook_triangle, textbook_factors, 0.875)
    for row in pooled_rows:
        assert row.reserve == pytest.approx(TEXTBOOK_RESERVES[row.accident_year], abs=1e-9)


def test_bf_missing_premium():
    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 165.0], [120.0]],
        premiums=[200.0, 220.0, 0.0],
        first_year=2001,
    )
    factors = age_to_age_factors(tri)
    with pytest.raises(DataError, match="2003 has no premium but needs development"):
        bornhuetter_ferguson(tri, factors, 0.875)
    with pytest.raises(DataError, match="2003 has no premium$"):
        implied_loss_ratios_by_year(tri, factors)


def test_bf_tolerates_zero_premium_on_fully_developed_year():
    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 165.0], [120.0]],
        premiums=[0.0, 220.0, 240.0],
        first_year=2001,
    )
    factors = age_to_age_factors(tri)
    rows = bornhuetter_ferguson(tri, factors, 0.875)
    assert rows[0].reserve == 0.0


# --- residual bootstrap -------------------------------------------------------

def test_structural_zero_cells(textbook_triangle):
    # newest year anchored at lag 1, deepest lag pinned by a single pair
    assert _structural_zero_cells(textbook_triangle) == {(2003, 1), (2001, 3)}


def test_bootstrap_degenerates_on_exact_triangle(textbook_triangle):
    """A triangle the chain ladder fits perfectly has all-zero residuals,
    so every pseudo-triangle refits the same factors deterministically."""
    result = bootstrap_chain_ladder(textbook_triangle, 200, np.random.default_rng(0))
    assert result.n_sims == 200
    assert result.mean == pytest.approx(TEXTBOOK_TOTAL_RESERVE, abs=1e-9)
    assert result.stddev == 0.0
    assert result.n_retries == 0
    assert np.all(result.reserve_samples == result.reserve_samples[0])
    np.testing.assert_allclose(
        result.factor_samples,
        np.broadcast_to(TEXTBOOK_FACTORS, result.factor_samples.shape),
        atol=1e-12,
    )
    for q in (0.5, 0.75, 0.95, 0.995):
        assert result.quantiles[q] == pytest.approx(TEXTBOOK_TOTAL_RESERVE, abs=1e-9)


def test_bootstrap_mean_tracks_chain_ladder_total():
    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 168.0], [125.0]],
        premiums=[200.0, 220.0, 240.0],
        first_year=2001,
    )
    factors = age_to_age_factors(tri)
    cl_total = sum(r.reserve for r in chain_ladder_ultimates(tri, factors))
    result = bootstrap_chain_ladder(tri, 1000, np.random.default_rng(7))
    assert result.mean == pytest.approx(cl_total, rel=0.05)
    assert result.stddev > 0.0
    assert result.reserve_samples.shape == (1000,)
    assert result.factor_samples.shape == (1000, 2)


def test_bootstrap_needs_three_accident_years():
    tri = triangle_from_arrays([[100.0, 150.0], [110.0]])
    with pytest.raises(DataError, match="bootstrap needs >= 3 accident years, got 2"):
        bootstrap_chain_ladder(tri, 10, np.random.default_rng(0))


def test_bootstrap_deterministic_given_seed(textbook_triangle):
    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 168.0], [125.0]],
    )
    a = bootstrap_chain_ladder(tri, 50, np.random.default_rng(11))
    b = bootstrap_chain_ladder(tri, 50, np.random.default_rng(11))
    np.testing.assert_array_equal(a.reserve_samples, b.reserve_samples)
    np.testing.assert_array_equal(a.factor_samples, b.factor_samples)


# --- deterministic paths ------------------------------------------------------

def _one_path(targets, initial_loss, premium, horizon):
    return targets(np.array([initial_loss]), np.array([premium]), horizon)[0]


def test_chain_ladder_path(textbook_factors):
    path = _one_path(chain_ladder_targets(textbook_factors), 100.0, 0.0, horizon=4)
    # tail beyond the last factor is flat
    np.testing.assert_allclose(path, [100.0, 150.0, 175.0, 175.0], atol=1e-9)


def test_bf_path_matches_cl_on_proportional_example(textbook_factors):
    path = _one_path(bornhuetter_ferguson_targets(textbook_factors, elr=0.875), 100.0, 200.0,
                     horizon=3)
    np.testing.assert_allclose(path, [100.0, 150.0, 175.0], atol=1e-9)


def test_bootstrap_path_on_degenerate_result(textbook_triangle):
    result = bootstrap_chain_ladder(textbook_triangle, 20, np.random.default_rng(1))
    path = _one_path(bootstrap_targets(result), 100.0, 0.0, horizon=3)
    np.testing.assert_allclose(path, [100.0, 150.0, 175.0], atol=1e-9)


def test_static_targets_match_per_episode_paths(bundle):
    """Each row of a run's target matrix has the bits of the per-episode
    path, at horizons shorter and longer than the factors, and the
    per-horizon curves are reused."""
    rng = np.random.default_rng(6)
    losses = np.concatenate([rng.lognormal(0.0, 1.0, 200), [0.0, 1e-300, 3.0]])
    premiums = np.concatenate([rng.uniform(0.0, 5.0, 200), [2.0, 0.0, 1e300]])
    factors = bundle.factors
    elr = implied_loss_ratio(bundle.train, factors)
    boot = bootstrap_chain_ladder(bundle.train, 50, np.random.default_rng(3))
    cases = [
        (chain_ladder_targets(factors), lambda loss, premium, h: chain_ladder_path(factors, loss, h)),
        (bornhuetter_ferguson_targets(factors, elr),
         lambda loss, premium, h: bornhuetter_ferguson_path(factors, elr, premium, loss, h)),
        (bootstrap_targets(boot), lambda loss, premium, h: bootstrap_path(boot, loss, h)),
    ]
    for targets, per_episode in cases:
        for horizon in (2, bundle.horizon, bundle.horizon + 3, bundle.horizon):
            matrix = targets(losses, premiums, horizon)
            expected = np.array([per_episode(loss, premium, horizon)
                                 for loss, premium in zip(losses.tolist(), premiums.tolist())])
            assert matrix.shape == (losses.size, horizon)
            assert matrix.tobytes() == expected.tobytes()


# --- grid chasing -------------------------------------------------------------

def test_chase_action_cases():
    assert _chase_action(1.0, 1.05) == 5        # nearest to +5% is +6.6%
    assert _chase_action(1.0, 1.2) == 6         # beyond the grid: max raise
    assert _chase_action(1.0, 0.5) == 0         # beyond the grid: max cut
    assert _chase_action(1.0, 1.0) == HOLD_ACTION
    assert _chase_action(0.0, 5.0) == 6         # bankrupt but target positive
    assert _chase_action(0.0, 0.0) == HOLD_ACTION
    # near-midpoint targets resolve deterministically
    assert _chase_action(1.0, 1.0495) == 5
    assert _chase_action(1.0, 1.0165) == HOLD_ACTION
    # the +10% edge itself is still treated as on-grid
    assert _chase_action(1.0, 1.10) == 6


def _flat_env(horizon=3, episodes_seed=0):
    tri = triangle_from_arrays(
        [[1.0, 1.1, 1.17], [1.0, 1.1], [1.0]],
        premiums=[2.0, 2.0, 2.0],
    )
    factors = DevelopmentFactors(factors=(1.10, 1.066))
    cfg = EnvConfig(horizon=horizon, noise_gain=0.0)
    env = ReserveEnv(tri, factors, cfg, np.random.default_rng(episodes_seed), FixedShock(1.0))
    return env, factors


def test_replay_tracks_grid_exact_path_perfectly():
    """When every required move sits on the action grid and losses develop
    noiselessly, the chain-ladder replay has zero shortfall and zero
    inefficiency at every step."""
    env, factors = _flat_env()
    trace = replay_static_policy(env, chain_ladder_targets(factors), 4, env.draw_paths(4))
    assert trace.n_steps == 12
    np.testing.assert_allclose(trace.shortfall, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(trace.reserve - trace.loss), 0.0, atol=1e-12)
    np.testing.assert_allclose(trace.reward, 0.0, atol=1e-12)
    # per-episode action pattern: +10%, +6.6%, hold (trace stores grid values)
    np.testing.assert_array_equal(trace.action[:3], [0.10, 0.066, 0.0])


def test_runners_produce_traces():
    env, factors = _flat_env()
    trace = replay_static_policy(env, chain_ladder_targets(factors), 2, env.draw_paths(2))
    assert trace.n_steps == 2 * env.horizon

    env2, _ = _flat_env()
    elr = 0.9
    trace2 = replay_static_policy(env2, bornhuetter_ferguson_targets(factors, elr), 2,
                                  env2.draw_paths(2))
    assert trace2.n_steps == 2 * env2.horizon

    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 165.0], [120.0]],
    )
    result = bootstrap_chain_ladder(tri, 20, np.random.default_rng(3))
    env3, _ = _flat_env()
    trace3 = replay_static_policy(env3, bootstrap_targets(result), 2, env3.draw_paths(2))
    assert trace3.n_steps == 2 * env3.horizon


def test_write_reserve_rows_csv(tmp_path, textbook_triangle, textbook_factors):
    rows = chain_ladder_ultimates(textbook_triangle, textbook_factors)
    path = tmp_path / "reserves.csv"
    write_records(str(path), ReserveRow, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,accident_year,latest,ultimate,reserve"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("chain_ladder,2001,")
