"""Synthetic triangle generator: shape, determinism, calibration."""

import os
import subprocess
import sys

import numpy as np
import pytest

from reserve_rl.synthetic import DEFAULT_FACTOR_PROFILE, SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import (
    SplitSpec,
    age_to_age_factors,
    normalize,
    split_rolling_origin,
)


def test_default_shape_is_ten_year_runoff():
    tri = make_synthetic_triangle(SyntheticSpec(), seed=0)
    assert tri.n_accident_years == 10
    assert tri.years == tuple(range(2001, 2011))
    assert tri.n_dev_lags == 10
    # runoff outline: the i-th oldest year carries n - i lags
    for i, year in enumerate(tri.years):
        assert tri.latest_lag(year) == 10 - i
    assert len(tri.cells) == 55


def test_cumulative_paths_increase():
    tri = make_synthetic_triangle(SyntheticSpec(), seed=0)
    for year in tri.years:
        values = [tri.value(year, lag) for lag in range(1, tri.latest_lag(year) + 1)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_premiums_grow_and_losses_track_ratio():
    spec = SyntheticSpec()
    tri = make_synthetic_triangle(spec, seed=0)
    premiums = [tri.premium(y) for y in tri.years]
    for a, b in zip(premiums, premiums[1:]):
        assert b == pytest.approx(a * (1.0 + spec.premium_growth), rel=1e-9)
    assert premiums[0] == spec.base_premium


def test_same_seed_same_triangle_different_seed_differs():
    a = make_synthetic_triangle(SyntheticSpec(), seed=0)
    b = make_synthetic_triangle(SyntheticSpec(), seed=0)
    c = make_synthetic_triangle(SyntheticSpec(), seed=1)
    assert a == b
    assert a != c


def test_realized_factors_near_profile():
    tri = make_synthetic_triangle(SyntheticSpec(), seed=0)
    factors = age_to_age_factors(tri)
    assert len(factors) == 9
    for realized, target in zip(factors.factors, DEFAULT_FACTOR_PROFILE):
        assert realized == pytest.approx(target, abs=0.05)
        assert realized > 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_years=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n_years=11)  # profile covers ten lags at most
    for ratio in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^loss ratio must be finite and positive, got "):
            SyntheticSpec(loss_ratio=ratio)


def test_zero_noise_reproduces_profile_exactly():
    spec = SyntheticSpec(loss_ratio_sigma=0.0, factor_sigma=0.0)
    tri = make_synthetic_triangle(spec, seed=3)
    factors = age_to_age_factors(tri)
    np.testing.assert_allclose(factors.factors, DEFAULT_FACTOR_PROFILE, rtol=1e-9)


def test_feeds_the_standard_pipeline():
    """The generator's output drops straight into normalize/split/factors."""
    tri = make_synthetic_triangle(SyntheticSpec(), seed=0)
    scaled, params = normalize(tri, SplitSpec(a_train=8, a_test=2))
    assert params.scale > 0
    train, test = split_rolling_origin(scaled, SplitSpec(a_train=8, a_test=2))
    assert train.n_accident_years == 8
    assert test.n_accident_years == 2
    factors = age_to_age_factors(train)
    # the oldest (training) years carry the deepest development, so the
    # training split still spans all ten lags
    assert len(factors) == 9
    horizon = len(factors) + 1
    assert horizon == 10


@pytest.mark.parametrize("years, message", [
    (11, "factor profile covers 10 lags, cannot build 11 years"),
    (1, "need at least 2 accident years, got 1"),
])
def test_script_reports_a_year_count_it_cannot_build_as_a_usage_error(tmp_path, years, message):
    """``scripts/make_synthetic_data.py`` refuses the count through argparse:
    exit 2, its usage, one ``error:`` line and no traceback or file."""
    assert_script_usage_error(tmp_path, ["--years", str(years)], message)


@pytest.mark.parametrize("option, value, message", [
    ("--loss-ratio", "-1", "loss ratio must be finite and positive, got -1.0"),
    ("--loss-ratio", "nan", "loss ratio must be finite and positive, got nan"),
    ("--loss-ratio", "0", "loss ratio must be finite and positive, got 0.0"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
])
def test_script_reports_a_loss_ratio_or_seed_it_cannot_use_as_a_usage_error(
        tmp_path, option, value, message):
    """A loss ratio that would make negative, undefined or all-zero losses,
    and a seed numpy cannot take, are refused like a year count."""
    assert_script_usage_error(tmp_path, [option, value], message)


def assert_script_usage_error(tmp_path, argv, message):
    """The script run with ``argv`` exits 2 with its usage, one ``error:``
    line and no traceback or file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "triangle.csv"
    done = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "make_synthetic_data.py"),
         *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: make_synthetic_data.py")
    assert done.stderr.splitlines()[-1] == f"make_synthetic_data.py: error: {message}"
    assert "Traceback" not in done.stderr
    assert not out.exists()
