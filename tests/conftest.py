"""Shared fixtures and helpers: a triangle from nested rows, the
hand-checkable textbook triangle and the synthetic data bundle every
integration-level test runs on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import pytest

from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import (
    DevelopmentFactors,
    LossTriangle,
    SplitSpec,
    TriangleCell,
    age_to_age_factors,
    normalize,
    split_rolling_origin,
)

# One verdict line per acceptance criterion; flushed into the terminal
# summary below so the battery reads as a checklist even under capture.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def triangle_from_arrays(
    cum_incurred: Sequence[Sequence[float]],
    premiums: Iterable[float] | None = None,
    first_year: int = 1,
    paid_ratio: float = 0.8,
) -> LossTriangle:
    """Build a triangle from nested incurred rows.

    Row i holds the observed cumulative incurred values of accident year
    ``first_year + i`` from lag 1 onward.  Paid amounts are synthesized
    as a flat fraction of incurred; premiums default to each year's last
    observed incurred (loss ratio 1 at the observation edge).
    """
    rows = [list(map(float, row)) for row in cum_incurred]
    if premiums is None:
        prem_list = [row[-1] for row in rows]
    else:
        prem_list = [float(p) for p in premiums]
    cells = []
    for i, row in enumerate(rows):
        for j, value in enumerate(row, start=1):
            cells.append(
                TriangleCell(
                    accident_year=first_year + i,
                    dev_lag=j,
                    cum_incurred=value,
                    cum_paid=paid_ratio * value,
                    earned_premium=prem_list[i],
                )
            )
    return LossTriangle(cells=tuple(cells))


@pytest.fixture()
def textbook_triangle() -> LossTriangle:
    """3x3 triangle with factors (1.5, 7/6) and reserves (0, 27.5, 90)."""
    return triangle_from_arrays(
        [[100.0, 150.0, 175.0], [110.0, 165.0], [120.0]],
        premiums=[200.0, 220.0, 240.0],
        first_year=2001,
    )


@dataclass(frozen=True)
class DataBundle:
    train: LossTriangle
    test: LossTriangle
    factors: DevelopmentFactors
    horizon: int


@pytest.fixture(scope="session")
def bundle() -> DataBundle:
    """Normalized synthetic book split 8/2, with its fitted factors."""
    tri = make_synthetic_triangle(SyntheticSpec(), seed=0)
    split = SplitSpec(a_train=8, a_test=2)
    normalized, _ = normalize(tri, split)
    train, test = split_rolling_origin(normalized, split)
    factors = age_to_age_factors(train)
    return DataBundle(train=train, test=test, factors=factors, horizon=len(factors) + 1)
