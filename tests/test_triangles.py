"""Triangle ingestion, normalization, splitting, and factor estimation."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve_rl.errors import ConfigError, DataError
from reserve_rl.triangles import (
    CSV_HEADER,
    DevelopmentFactors,
    LossTriangle,
    NormalizationParams,
    SplitSpec,
    TriangleCell,
    age_to_age_factors,
    normalize,
    parse_triangle_csv,
    split_rolling_origin,
    triangle_from_arrays,
    write_triangle_csv,
)

FACTOR_ORACLE = (1.5, 1.1666666666666667)  # (150+165)/(100+110), 175/150


def test_age_to_age_factors_hand_values(textbook_triangle):
    factors = age_to_age_factors(textbook_triangle)
    assert len(factors) == 2
    np.testing.assert_allclose(factors.factors, FACTOR_ORACLE, rtol=0, atol=1e-12)


def test_factor_for_step_flat_beyond_last_lag():
    factors = DevelopmentFactors(factors=FACTOR_ORACLE)
    assert factors.factor_for_step(0) == 1.5
    assert factors.factor_for_step(1) == FACTOR_ORACLE[1]
    assert factors.factor_for_step(2) == 1.0
    assert factors.factor_for_step(99) == 1.0
    with pytest.raises(IndexError):
        factors.factor_for_step(-1)


def test_cumulative_profile():
    factors = DevelopmentFactors(factors=FACTOR_ORACLE)
    profile = factors.cumulative_profile(4)
    np.testing.assert_allclose(profile, [1.0, 1.5, 1.75, 1.75], atol=1e-12)


def test_normalize_scale_is_training_max(textbook_triangle):
    normalized, params = normalize(textbook_triangle, SplitSpec(a_train=2, a_test=1))
    # train years are 2001-2002; their largest cum_incurred is 175
    assert params.scale == 175.0
    assert normalized.value(2001, 3) == 1.0


def test_normalize_ignores_held_out_years():
    tri = triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 165.0], [500.0]],
        premiums=[200.0, 220.0, 240.0],
    )
    normalized, params = normalize(tri, SplitSpec(a_train=2, a_test=1))
    assert params.scale == 175.0
    # held-out year may exceed 1 after scaling; that is the point
    assert normalized.value(3, 1) > 1.0


def denormalize(tri: LossTriangle, params: NormalizationParams) -> LossTriangle:
    """Invert :func:`normalize` (exact up to float rounding)."""
    def invert(x: float) -> float:
        return x * params.scale

    return LossTriangle(cells=tuple(
        TriangleCell(
            accident_year=c.accident_year,
            dev_lag=c.dev_lag,
            cum_incurred=invert(c.cum_incurred),
            cum_paid=invert(c.cum_paid),
            earned_premium=invert(c.earned_premium),
        )
        for c in tri.cells
    ))


def test_normalize_denormalize_round_trip(textbook_triangle):
    normalized, params = normalize(textbook_triangle, SplitSpec(a_train=2, a_test=1))
    restored = denormalize(normalized, params)
    for cell, orig in zip(restored.cells, textbook_triangle.cells):
        assert cell.cum_incurred == pytest.approx(orig.cum_incurred, abs=1e-12)
        assert cell.cum_paid == pytest.approx(orig.cum_paid, abs=1e-12)
        assert cell.earned_premium == pytest.approx(orig.earned_premium, abs=1e-12)


def test_factors_are_scale_invariant(textbook_triangle):
    raw = age_to_age_factors(textbook_triangle)
    normalized, _ = normalize(textbook_triangle, SplitSpec(a_train=2, a_test=1))
    scaled = age_to_age_factors(normalized)
    np.testing.assert_allclose(scaled.factors, raw.factors, rtol=0, atol=1e-12)


def test_split_disjoint_and_exhaustive():
    # four years so the newest two (the test block) still span two dev lags
    tri = triangle_from_arrays(
        [
            [100.0, 150.0, 175.0, 180.0],
            [110.0, 165.0, 192.0],
            [120.0, 181.0],
            [130.0],
        ],
        first_year=2001,
    )
    train, test = split_rolling_origin(tri, SplitSpec(a_train=2, a_test=2))
    assert train.years == (2001, 2002)
    assert test.years == (2003, 2004)
    assert len(train.cells) + len(test.cells) == len(tri.cells)
    assert set(train.cells).isdisjoint(test.cells)


def test_split_size_mismatch_rejected(textbook_triangle):
    with pytest.raises(ConfigError, match=r"a_train \+ a_test = 4 does not match 3 accident"):
        split_rolling_origin(textbook_triangle, SplitSpec(a_train=3, a_test=1))
    with pytest.raises(ConfigError, match="a_train must be >= 2, got 1"):
        SplitSpec(a_train=1, a_test=2)  # a_train floor is 2
    with pytest.raises(ConfigError, match="a_test must be >= 1, got 0"):
        SplitSpec(a_train=2, a_test=0)


def test_csv_round_trip(tmp_path, textbook_triangle):
    path = tmp_path / "tri.csv"
    write_triangle_csv(textbook_triangle, str(path))
    parsed = parse_triangle_csv(str(path))
    assert parsed.cells == textbook_triangle.cells


def test_parser_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("year,lag,incurred,paid,premium\n1,1,1,1,1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:1: expected header")):
        parse_triangle_csv(str(path))


def test_parser_rejects_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n2001,1,100,80\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: expected 5 fields, got 4")):
        parse_triangle_csv(str(path))


def test_parser_rejects_negative_and_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n2001,1,-5,80,200\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: cum_incurred must be finite")):
        parse_triangle_csv(str(path))
    path.write_text(CSV_HEADER + "\n2001,one,100,80,200\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: invalid literal for int()")):
        parse_triangle_csv(str(path))


def test_parser_rejects_duplicates_and_empty(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "2001,1,100,80,200\n2001,1,100,80,200\n2001,2,150,120,200\n"
    path.write_text(CSV_HEADER + "\n" + rows)
    with pytest.raises(DataError, match=re.escape(f"{path}: duplicate cell")):
        parse_triangle_csv(str(path))
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: no data rows")):
        parse_triangle_csv(str(path))
    path.write_text("")
    with pytest.raises(DataError, match=re.escape(f"{path}: file is empty")):
        parse_triangle_csv(str(path))


@pytest.mark.parametrize("rows, message", [
    ("2001,1,100,80,200\n2001,3,150,120,200\n",
     "accident year 2001 has non-contiguous dev lags (1, 3)"),
    ("2001,1,100,80,200\n2001,2,150,120,999\n",
     "accident year 2001 has inconsistent earned_premium values [200.0, 999.0]"),
])
def test_parser_prefixes_triangle_refusals_with_the_path(tmp_path, rows, message):
    """A refusal raised while the parsed cells become a triangle names the file."""
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + rows)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        parse_triangle_csv(str(path))


def test_parser_rejects_non_runoff_outline(tmp_path):
    # year 2 stops at lag 1 although the diagonal implies lag 2
    tri = triangle_from_arrays([[100.0, 150.0, 175.0], [110.0], [120.0]])
    path = tmp_path / "gap.csv"
    write_triangle_csv(tri, str(path))
    with pytest.raises(DataError, match=re.escape(f"{path}: accident year 2 observed through lag 1, "
                                                  "expected lag 2")):
        parse_triangle_csv(str(path))


def test_triangle_needs_two_lags():
    with pytest.raises(DataError, match="a triangle needs at least two development lags"):
        triangle_from_arrays([[100.0], [110.0]])


def test_premium_must_be_constant_within_year():
    cells = (
        TriangleCell(2001, 1, 100.0, 80.0, 200.0),
        TriangleCell(2001, 2, 150.0, 120.0, 999.0),
    )
    with pytest.raises(DataError, match="2001 has inconsistent earned_premium"):
        LossTriangle(cells=cells)


def test_non_contiguous_lags_rejected():
    cells = (
        TriangleCell(2001, 1, 100.0, 80.0, 200.0),
        TriangleCell(2001, 3, 150.0, 120.0, 200.0),
    )
    with pytest.raises(DataError, match=r"2001 has non-contiguous dev lags \(1, 3\)"):
        LossTriangle(cells=cells)


def test_degenerate_scale_rejected():
    tri = triangle_from_arrays([[0.0, 0.0], [0.0], [0.0]], premiums=[0.0, 0.0, 0.0])
    with pytest.raises(DataError, match="training split max cum_incurred is 0.0"):
        # zero-valued training cells cannot define a scale
        normalize(tri, SplitSpec(a_train=2, a_test=1))


# --- property tests ----------------------------------------------------------

@st.composite
def runoff_triangles(draw):
    """Random single-diagonal triangles with strictly positive cells."""
    n_years = draw(st.integers(min_value=3, max_value=6))
    n_lags = draw(st.integers(min_value=2, max_value=min(5, n_years)))
    rows = []
    for i in range(n_years):
        depth = min(n_lags, n_years - i)
        start = draw(st.floats(min_value=10.0, max_value=500.0))
        growths = draw(
            st.lists(
                st.floats(min_value=1.0, max_value=2.0),
                min_size=depth - 1,
                max_size=depth - 1,
            )
        )
        row = [start]
        for g in growths:
            row.append(row[-1] * g)
        rows.append(row)
    return triangle_from_arrays(rows)


@given(runoff_triangles(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_factor_scale_invariance_property(tri, scale):
    scaled = triangle_from_arrays(
        [
            [tri.value(year, lag) * scale for lag in range(1, tri.latest_lag(year) + 1)]
            for year in tri.years
        ],
        premiums=[tri.premium(year) * scale for year in tri.years],
    )
    base = age_to_age_factors(tri).factors
    rescaled = age_to_age_factors(scaled).factors
    np.testing.assert_allclose(rescaled, base, rtol=1e-9)


@given(runoff_triangles())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(tmp_path_factory, tri):
    path = tmp_path_factory.mktemp("tri") / "t.csv"
    write_triangle_csv(tri, str(path))
    parsed = parse_triangle_csv(str(path))
    assert parsed.cells == tri.cells
    # every factor from a strictly-growing triangle is >= 1
    assert all(f >= 1.0 for f in age_to_age_factors(parsed).factors)
