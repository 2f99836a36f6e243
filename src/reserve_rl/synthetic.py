"""Deterministic synthetic loss triangle generator.

Produces a casualty-flavored runoff triangle: premiums grow a few
percent a year, ultimate losses hover around a target loss ratio, and
development follows a fixed decaying factor profile with mild lognormal
cell noise.  Everything is driven by one seed, so the same call always
yields the same triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .triangles import LossTriangle, TriangleCell

#: Target age-to-age profile: one substantial first development step,
#: then a shallow tail.  The product (~1.28) sets how much of the
#: ultimate is unreported at the first lag (~22%).
DEFAULT_FACTOR_PROFILE: tuple[float, ...] = (
    1.13, 1.05, 1.03, 1.02, 1.012, 1.008, 1.005, 1.003, 1.0015,
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generator; defaults give a well-behaved 10x10 book."""

    n_years: int = 10
    start_year: int = 2001
    base_premium: float = 1000.0
    premium_growth: float = 0.02
    loss_ratio: float = 0.65
    loss_ratio_sigma: float = 0.04
    #: Relative noise on each development increment (not on the factor
    #: itself), so every realized step factor stays above 1 and the
    #: cumulative path never runs backwards.
    factor_sigma: float = 0.25
    factor_profile: tuple[float, ...] = DEFAULT_FACTOR_PROFILE

    def __post_init__(self) -> None:
        if self.n_years < 2:
            raise ValueError(f"need at least 2 accident years, got {self.n_years}")
        if self.n_years > len(self.factor_profile) + 1:
            raise ValueError(
                f"factor profile covers {len(self.factor_profile) + 1} lags, "
                f"cannot build {self.n_years} years"
            )
        # a non-positive ratio gives a triangle ingest refuses, or negative losses
        if not (math.isfinite(self.loss_ratio) and self.loss_ratio > 0.0):
            raise ValueError(f"loss ratio must be finite and positive, got {self.loss_ratio}")


def _lognormal(rng: np.random.Generator, sigma: float) -> float:
    """Unit-mean multiplicative noise."""
    if sigma == 0.0:
        return 1.0
    return math.exp(rng.normal(0.0, sigma) - 0.5 * sigma * sigma)


def make_synthetic_triangle(spec: SyntheticSpec = SyntheticSpec(), seed: int = 0) -> LossTriangle:
    """Build the runoff triangle for ``spec`` under one seed.

    Year ``i`` (1-based) is observed at lags 1..(n_years - i + 1); paid
    amounts trail incurred along a fixed schedule that converges near
    full payment at the deepest lag.
    """
    rng = np.random.default_rng(seed)
    profile = spec.factor_profile[: spec.n_years - 1]
    full_growth = math.prod(profile)
    cells = []
    for i in range(1, spec.n_years + 1):
        year = spec.start_year + i - 1
        premium = spec.base_premium * (1.0 + spec.premium_growth) ** (i - 1)
        ultimate = premium * spec.loss_ratio * _lognormal(rng, spec.loss_ratio_sigma)
        cum = ultimate / full_growth
        n_lags = spec.n_years - i + 1
        for lag in range(1, n_lags + 1):
            cells.append(
                TriangleCell(
                    accident_year=year,
                    dev_lag=lag,
                    cum_incurred=cum,
                    cum_paid=cum * _paid_fraction(lag, spec.n_years),
                    earned_premium=premium,
                )
            )
            if lag < n_lags:
                step = 1.0 + (profile[lag - 1] - 1.0) * _lognormal(rng, spec.factor_sigma)
                cum *= step
    return LossTriangle(cells=tuple(cells))


def _paid_fraction(lag: int, n_lags: int) -> float:
    """Paid share of incurred: 55% at the first lag, ~98% at the last."""
    if n_lags == 1:
        return 0.98
    return 0.55 + 0.43 * (lag - 1) / (n_lags - 1)
