"""Loss development triangles: ingestion, normalization, splitting, factors.

A run-off triangle holds cumulative incurred/paid losses by accident year
and development lag.  Everything downstream (the reserving environment,
the classical baselines, the evaluation harness) consumes triangles
through this module, so the shape and scale conventions are pinned here:

* dev lags are 1-based; lag 1 is the first observed position,
* monetary normalization divides by a single positive scale taken from
  the training split only (no leakage from held-out accident years),
* train/test splits are by accident year, oldest years in train.

CSV format (header must match exactly, one cell per row; the columns are
:class:`TriangleCell`'s fields)::

    accident_year,dev_lag,cum_incurred,cum_paid,earned_premium
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .artifacts import field_names, write_records
from .errors import ConfigError, DataError, NumericalError


@dataclass(frozen=True)
class TriangleCell:
    """One observed cell of a run-off triangle.

    Args:
        accident_year: Year (or origin period label) the claims attach to.
        dev_lag: 1-based development lag of the observation.
        cum_incurred: Cumulative incurred losses at this lag.
        cum_paid: Cumulative paid losses at this lag.
        earned_premium: Earned premium for the accident year (constant
            across lags of the same year).
    """

    accident_year: int
    dev_lag: int
    cum_incurred: float
    cum_paid: float
    earned_premium: float

    def __post_init__(self) -> None:
        if not isinstance(self.accident_year, int) or isinstance(self.accident_year, bool):
            raise DataError(f"accident_year must be an integer, got {self.accident_year!r}")
        if not isinstance(self.dev_lag, int) or isinstance(self.dev_lag, bool):
            raise DataError(f"dev_lag must be an integer, got {self.dev_lag!r}")
        if self.dev_lag < 1:
            raise DataError(f"dev_lag must be >= 1, got {self.dev_lag}")
        for name in ("cum_incurred", "cum_paid", "earned_premium"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise DataError(f"{name} must be finite and non-negative, got {value!r}")


#: The CSV columns, :class:`TriangleCell`'s fields.
_CSV_FIELDS = list(field_names(TriangleCell))
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass(frozen=True)
class LossTriangle:
    """Immutable collection of triangle cells with fast lookups.

    The constructor enforces internal consistency (no duplicate cells,
    at least two development lags, contiguous lags starting at 1 within
    each accident year, premium constant within a year).  The stricter
    single-valuation-diagonal shape check lives in
    :func:`parse_triangle_csv`, because derived triangles (train splits,
    bootstrap pseudo-triangles) legitimately carry other outlines.
    """

    cells: tuple[TriangleCell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise DataError("a triangle needs at least one cell")
        ordered = tuple(sorted(self.cells, key=lambda c: (c.accident_year, c.dev_lag)))
        object.__setattr__(self, "cells", ordered)

        by_key: dict[tuple[int, int], TriangleCell] = {}
        for cell in ordered:
            key = (cell.accident_year, cell.dev_lag)
            if key in by_key:
                raise DataError(f"duplicate cell for accident_year={key[0]}, dev_lag={key[1]}")
            by_key[key] = cell

        years = tuple(sorted({c.accident_year for c in ordered}))
        n_lags = max(c.dev_lag for c in ordered)
        if n_lags < 2:
            raise DataError("a triangle needs at least two development lags")

        lags_by_year: dict[int, tuple[int, ...]] = {}
        premium_by_year: dict[int, float] = {}
        for year in years:
            lags = tuple(sorted(c.dev_lag for c in ordered if c.accident_year == year))
            if lags != tuple(range(1, len(lags) + 1)):
                raise DataError(
                    f"accident year {year} has non-contiguous dev lags {lags}"
                )
            lags_by_year[year] = lags
            premiums = {c.earned_premium for c in ordered if c.accident_year == year}
            if len(premiums) > 1:
                raise DataError(
                    f"accident year {year} has inconsistent earned_premium values {sorted(premiums)}"
                )
            premium_by_year[year] = premiums.pop()

        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_years", years)
        object.__setattr__(self, "_n_dev_lags", n_lags)
        object.__setattr__(self, "_lags_by_year", lags_by_year)
        object.__setattr__(self, "_premium_by_year", premium_by_year)

    @property
    def years(self) -> tuple[int, ...]:
        return self._years  # type: ignore[attr-defined]

    @property
    def n_accident_years(self) -> int:
        return len(self._years)  # type: ignore[attr-defined]

    @property
    def n_dev_lags(self) -> int:
        return self._n_dev_lags  # type: ignore[attr-defined]

    def has(self, year: int, lag: int) -> bool:
        return (year, lag) in self._by_key  # type: ignore[attr-defined]

    def value(self, year: int, lag: int) -> float:
        """Cumulative incurred at (year, lag); KeyError if unobserved."""
        return self._by_key[(year, lag)].cum_incurred  # type: ignore[attr-defined]

    def latest_lag(self, year: int) -> int:
        return self._lags_by_year[year][-1]  # type: ignore[attr-defined]

    def premium(self, year: int) -> float:
        return self._premium_by_year[year]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class NormalizationParams:
    """Normalization x -> x / scale applied to money columns; the scale is
    the maximum cumulative incurred value observed in the training split.
    """

    scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise DataError(f"normalization scale must be positive, got {self.scale!r}")

    def apply(self, x: float) -> float:
        return x / self.scale


@dataclass(frozen=True)
class SplitSpec:
    """Rolling-origin split sizes: oldest a_train years train, rest test."""

    a_train: int
    a_test: int

    def __post_init__(self) -> None:
        if self.a_train < 2:
            raise ConfigError(f"a_train must be >= 2, got {self.a_train}")
        if self.a_test < 1:
            raise ConfigError(f"a_test must be >= 1, got {self.a_test}")


@dataclass(frozen=True)
class DevelopmentFactors:
    """Volume-weighted age-to-age factors f_1..f_{T-1} (all positive)."""

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DataError("no development factors")
        for j, f in enumerate(self.factors, start=1):
            if not math.isfinite(f) or f <= 0.0:
                raise NumericalError(f"development factor f_{j} must be positive, got {f!r}")

    def __len__(self) -> int:
        return len(self.factors)

    def factor_for_step(self, t: int) -> float:
        """Factor applied at step index t (0-based); 1.0 beyond the last lag.

        Beyond the final observed lag there is no systematic development
        left (tail extrapolation is out of scope), so the profile is flat.
        """
        if t < 0:
            raise IndexError(f"step index must be >= 0, got {t}")
        if t < len(self.factors):
            return self.factors[t]
        return 1.0

    def cumulative_profile(self, n: int) -> np.ndarray:
        """Cumulative growth g_k = f_1 * ... * f_k for k = 0..n-1 (g_0 = 1)."""
        profile = np.empty(n, dtype=float)
        acc = 1.0
        for k in range(n):
            profile[k] = acc
            acc *= self.factor_for_step(k)
        return profile


def parse_triangle_csv(path: str) -> LossTriangle:
    """Read a run-off triangle from CSV.

    The header must match ``accident_year,dev_lag,cum_incurred,cum_paid,
    earned_premium`` exactly.  Cells must form a single-valuation-date
    run-off shape: sorted accident years i = 1..A each observed at lags
    1..min(T, D - i + 1) where T is the deepest lag and D the diagonal
    index implied by the data.

    Args:
        path: Filesystem path of the CSV file.

    Returns:
        The parsed :class:`LossTriangle`.

    Raises:
        DataError: Bad header, field count, type, or negative value
            (the message carries the offending line number), a repeated
            (accident_year, dev_lag) pair, no data rows after the header,
            or cells that do not form a run-off shape.  Every message
            starts with ``path``.
    """
    cells: list[TriangleCell] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if header != _CSV_FIELDS:
            raise DataError(
                f"{path}:1: expected header {CSV_HEADER!r}, got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not field.strip() for field in row):
                continue  # ignore blank lines
            if len(row) != len(_CSV_FIELDS):
                raise DataError(
                    f"{path}:{lineno}: expected {len(_CSV_FIELDS)} fields, got {len(row)}"
                )
            try:
                cell = TriangleCell(int(row[0]), int(row[1]), *map(float, row[2:]))
            except (DataError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            cells.append(cell)
    if not cells:
        raise DataError(f"{path}: no data rows")

    try:
        triangle = LossTriangle(cells=tuple(cells))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    _check_runoff_shape(triangle, path)
    return triangle


def _check_runoff_shape(tri: LossTriangle, path: str) -> None:
    """Enforce the single-diagonal run-off outline on a parsed triangle."""
    years = tri.years
    t_max = tri.n_dev_lags
    diagonal = max(idx + tri.latest_lag(year) - 1 for idx, year in enumerate(years, start=1))
    for idx, year in enumerate(years, start=1):
        expected = min(t_max, diagonal - idx + 1)
        observed = tri.latest_lag(year)
        if observed != expected:
            raise DataError(
                f"{path}: accident year {year} observed through lag {observed}, "
                f"expected lag {expected} for a run-off shape"
            )


def normalize(tri: LossTriangle, split: SplitSpec) -> tuple[LossTriangle, NormalizationParams]:
    """Scale every monetary field by the training-split maximum incurred.

    The scale is max cum_incurred over cells of the first ``a_train``
    accident years only, so held-out years never influence it (their
    normalized values may legitimately exceed 1).

    Raises:
        ConfigError: Split sizes inconsistent with the triangle.
        DataError: Training maximum is not positive.
    """
    _validate_split(tri, split)
    train_years = set(tri.years[: split.a_train])
    scale = max(c.cum_incurred for c in tri.cells if c.accident_year in train_years)
    if scale <= 0.0:
        raise DataError(f"training split max cum_incurred is {scale}")
    params = NormalizationParams(scale=scale)
    scaled = tuple(
        TriangleCell(
            accident_year=c.accident_year,
            dev_lag=c.dev_lag,
            cum_incurred=params.apply(c.cum_incurred),
            cum_paid=params.apply(c.cum_paid),
            earned_premium=params.apply(c.earned_premium),
        )
        for c in tri.cells
    )
    return LossTriangle(cells=scaled), params


def _validate_split(tri: LossTriangle, split: SplitSpec) -> None:
    if split.a_train + split.a_test != tri.n_accident_years:
        raise ConfigError(
            f"a_train + a_test = {split.a_train + split.a_test} does not match "
            f"{tri.n_accident_years} accident years"
        )


def split_rolling_origin(tri: LossTriangle, split: SplitSpec) -> tuple[LossTriangle, LossTriangle]:
    """Split by accident year: oldest ``a_train`` years train, rest test.

    Cells keep all their observed lags; no cell appears in both halves.
    """
    _validate_split(tri, split)
    train_years = set(tri.years[: split.a_train])
    train_cells = tuple(c for c in tri.cells if c.accident_year in train_years)
    test_cells = tuple(c for c in tri.cells if c.accident_year not in train_years)
    return LossTriangle(cells=train_cells), LossTriangle(cells=test_cells)


def age_to_age_factors(tri: LossTriangle) -> DevelopmentFactors:
    """Volume-weighted chain-ladder age-to-age factors.

    For each lag j the factor is the ratio of column sums over accident
    years observed at both j and j+1::

        f_j = sum_i C[i, j+1] / sum_i C[i, j]

    Args:
        tri: Triangle to estimate from (normalized or raw; the factors
            are scale invariant).

    Returns:
        :class:`DevelopmentFactors` with T-1 entries for a T-lag triangle.

    Raises:
        DataError: Some adjacent-lag pair has no accident year
            observed at both lags.
        NumericalError: A denominator column sums to zero.
    """
    factors: list[float] = []
    for lag in range(1, tri.n_dev_lags):
        numer = 0.0
        denom = 0.0
        pairs = 0
        for year in tri.years:
            if tri.has(year, lag) and tri.has(year, lag + 1):
                numer += tri.value(year, lag + 1)
                denom += tri.value(year, lag)
                pairs += 1
        if pairs == 0:
            raise DataError(
                f"no accident years observed at both lags {lag} and {lag + 1}"
            )
        if denom == 0.0:
            raise NumericalError(f"column sum at lag {lag} is zero")
        factors.append(numer / denom)
    return DevelopmentFactors(factors=tuple(factors))


def write_triangle_csv(tri: LossTriangle, path: str) -> None:
    """Write a triangle in the canonical CSV format (full float precision)."""
    write_records(path, TriangleCell, tri.cells)


def triangle_from_arrays(
    cum_incurred: Sequence[Sequence[float]],
    premiums: Iterable[float] | None = None,
    first_year: int = 1,
    paid_ratio: float = 0.8,
) -> LossTriangle:
    """Build a triangle from nested incurred rows (test/demo convenience).

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
