"""Shock regimes: severity table, curriculum ramps, and the sampler."""

from __future__ import annotations

import numpy as np
import pytest

from reserve_rl.errors import ConfigError
from reserve_rl.regimes import (
    DEFAULT_REGIME_TABLE,
    MIN_SHOCK,
    REGIME_NAMES,
    CurriculumSchedule,
    FixedShock,
    RegimeSpec,
    Stochastic,
    effective_params,
    interpolate,
    regime_params,
    sample_shock,
    shock_for_step,
)

EXPECTED_TABLE = {0: (1.0, 0.01), 1: (1.2, 0.04), 2: (1.5, 0.09), 3: (1.8, 0.16)}


def test_default_table_exact():
    assert set(DEFAULT_REGIME_TABLE) == set(EXPECTED_TABLE)
    for level, (mu, var) in EXPECTED_TABLE.items():
        spec = regime_params(level)
        assert spec.level == level
        assert spec.mu == mu
        assert spec.var == var


def test_regime_names_cover_all_levels():
    assert set(REGIME_NAMES) == set(EXPECTED_TABLE)
    assert REGIME_NAMES[0] == "calm"
    assert REGIME_NAMES[3] == "recession"


def test_unknown_level_rejected():
    with pytest.raises(ConfigError, match="unknown regime level 4"):
        regime_params(4)
    with pytest.raises(ConfigError, match="unknown regime level -1"):
        regime_params(-1)


def test_regime_spec_validation():
    with pytest.raises(ConfigError, match="regime mu must be finite, got nan"):
        RegimeSpec(level=0, mu=float("nan"), var=0.01)
    with pytest.raises(ConfigError, match="regime var must be >= 0, got -0.01"):
        RegimeSpec(level=0, mu=1.0, var=-0.01)


def test_interpolation_endpoints_bitwise():
    a, b = regime_params(1), regime_params(2)
    assert interpolate(a, b, 0.0) == (a.mu, a.var)
    assert interpolate(a, b, 1.0) == (b.mu, b.var)


def test_interpolation_midpoint_is_convex_combination():
    a, b = regime_params(0), regime_params(3)
    mu, var = interpolate(a, b, 0.25)
    assert mu == pytest.approx(0.75 * a.mu + 0.25 * b.mu, abs=1e-15)
    assert var == pytest.approx(0.75 * a.var + 0.25 * b.var, abs=1e-15)


def test_interpolation_rejects_bad_progress():
    a, b = regime_params(0), regime_params(1)
    for progress in (-0.01, 1.01, float("nan")):
        with pytest.raises(ConfigError, match=r"progress must be in \[0, 1\], got"):
            interpolate(a, b, progress)


def test_predecessor_chain():
    schedule = CurriculumSchedule(levels=(0, 1, 3))
    assert schedule.predecessor(0) is None
    assert schedule.predecessor(1) == 0
    assert schedule.predecessor(3) == 1
    with pytest.raises(ConfigError, match=r"level 2 is not part of the schedule \(0, 1, 3\)"):
        schedule.predecessor(2)


def test_schedule_validation():
    with pytest.raises(ConfigError, match="curriculum needs at least one level"):
        CurriculumSchedule(levels=())
    with pytest.raises(ConfigError, match=r"strictly ascending, got \(1, 0\)"):
        CurriculumSchedule(levels=(1, 0))
    with pytest.raises(ConfigError, match=r"strictly ascending, got \(0, 0\)"):
        CurriculumSchedule(levels=(0, 0))
    with pytest.raises(ConfigError, match="episodes_per_level must be >= 1, got 0"):
        CurriculumSchedule(levels=(0,), episodes_per_level=0)
    with pytest.raises(ConfigError, match=r"ramp_episodes must be in \[1, .*got 0$"):
        CurriculumSchedule(levels=(0,), episodes_per_level=10, ramp_episodes=0)
    with pytest.raises(ConfigError, match=r"ramp_episodes must be in \[1, .*got 11$"):
        CurriculumSchedule(levels=(0,), episodes_per_level=10, ramp_episodes=11)


def test_ramp_progress_reaches_one_at_ramp_end():
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=20, ramp_episodes=5)
    assert schedule.ramp_progress(0) == pytest.approx(0.2)
    assert schedule.ramp_progress(4) == 1.0
    assert schedule.ramp_progress(19) == 1.0
    with pytest.raises(ConfigError, match="episode index must be >= 0, got -1"):
        schedule.ramp_progress(-1)


def test_effective_params_ramp_blends_with_predecessor():
    schedule = CurriculumSchedule(levels=(0, 1, 2, 3), episodes_per_level=10, ramp_episodes=4)
    mu, var = effective_params(Stochastic(2), 0.5, schedule)
    a, b = regime_params(1), regime_params(2)
    assert mu == pytest.approx(0.5 * (a.mu + b.mu), abs=1e-15)
    assert var == pytest.approx(0.5 * (a.var + b.var), abs=1e-15)
    # the first level has nothing to ramp from
    mu0, var0 = effective_params(Stochastic(0), 0.1, schedule)
    assert (mu0, var0) == EXPECTED_TABLE[0]
    # and full progress uses the level's own parameters exactly
    assert effective_params(Stochastic(2), 1.0, schedule) == EXPECTED_TABLE[2]


def test_effective_params_fixed_shock_uses_calm_variance():
    schedule = CurriculumSchedule()
    mu, var = effective_params(FixedShock(1.5), 1.0, schedule)
    assert mu == 1.5
    assert var == EXPECTED_TABLE[0][1]


def test_fixed_shock_is_constant_and_validated():
    schedule = CurriculumSchedule()
    rng = np.random.default_rng(0)
    draws = {shock_for_step(FixedShock(2.0), 1.0, schedule, rng) for _ in range(16)}
    assert draws == {2.0}
    with pytest.raises(ConfigError, match="fixed shock must be positive, got 0.0"):
        FixedShock(0.0)
    with pytest.raises(ConfigError, match="fixed shock must be positive, got inf"):
        FixedShock(float("inf"))


class _StubNormal:
    """Generator stand-in whose every normal draw is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def normal(self, loc: float, scale: float) -> float:
        return self.value


def test_shock_clamped_at_minimum():
    # draws far below the floor always clamp; one above it passes through
    schedule = CurriculumSchedule()
    for level in EXPECTED_TABLE:
        assert shock_for_step(Stochastic(level), 1.0, schedule, _StubNormal(-5.0)) == MIN_SHOCK
    assert shock_for_step(Stochastic(0), 1.0, schedule, _StubNormal(2 * MIN_SHOCK)) == 2 * MIN_SHOCK


def test_sampler_moments_per_level():
    rng = np.random.default_rng(2718)
    for level, (mu, var) in EXPECTED_TABLE.items():
        draws = np.array([sample_shock(mu, var, rng) for _ in range(20_000)])
        assert abs(draws.mean() - mu) < 0.01
        assert abs(draws.var() - var) < 0.1 * var + 1e-3


def test_unknown_stochastic_level_surfaces_on_use():
    with pytest.raises(ConfigError, match="unknown regime level 9"):
        effective_params(Stochastic(9), 1.0, CurriculumSchedule())
