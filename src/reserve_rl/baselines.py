"""Classical actuarial reserving baselines and their environment adapters.

Three point-estimate methods are implemented: the volume-weighted chain
ladder, Bornhuetter-Ferguson against an expected loss ratio, and an
over-dispersed-Poisson-style residual bootstrap of the chain ladder
(estimation error only: residuals are resampled, the pseudo-triangle is
refit, and the actual latest diagonal is re-projected with the refit
factors).

Each method also yields a deterministic per-period reserve path -- its
expectation of cumulative losses by development lag -- which is replayed
through the environment via the same bounded action grid the learned
policy uses, so comparisons share identical dynamics and random draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .env import ACTION_GRID, TIE_BREAK_ORDER, EpisodeInfo, ReserveEnv, Trace
from .errors import DegenerateResiduals, InsufficientData, MissingPremium
from .triangles import DevelopmentFactors, LossTriangle, age_to_age_factors

log = logging.getLogger(__name__)

RESERVE_TABLE_HEADER = "method,accident_year,latest,ultimate,reserve"

#: Relative chase gap beyond which the replay jumps to the extreme action.
_MAX_STEP = max(ACTION_GRID)
HOLD_ACTION_INDEX = ACTION_GRID.index(0.0)
_TIE_BREAK = np.asarray(TIE_BREAK_ORDER)
_ORDERED_GRID = np.asarray(ACTION_GRID)[_TIE_BREAK]


@dataclass(frozen=True)
class ReserveRow:
    """One accident year's point estimate under one method."""

    method: str
    accident_year: int
    latest: float
    ultimate: float
    reserve: float


def write_reserve_rows_csv(rows: Sequence[ReserveRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(RESERVE_TABLE_HEADER + "\n")
        for r in rows:
            handle.write(
                f"{r.method},{r.accident_year},{r.latest!r},{r.ultimate!r},{r.reserve!r}\n"
            )


def _check_factor_coverage(tri: LossTriangle, factors: DevelopmentFactors) -> None:
    if len(factors) < tri.n_dev_lags - 1:
        raise InsufficientData(
            f"{len(factors)} factors cannot develop a {tri.n_dev_lags}-lag triangle"
        )


def chain_ladder_ultimates(
    tri: LossTriangle, factors: DevelopmentFactors
) -> list[ReserveRow]:
    """Project each accident year's latest incurred to ultimate.

    ``ultimate_i = latest_i * prod(f_j for j >= current lag)`` and the
    reserve is the ultimate minus the latest observed value.

    Raises:
        InsufficientData: Factors do not cover the triangle's lags.
    """
    _check_factor_coverage(tri, factors)
    rows = []
    for year in tri.years:
        lag = tri.latest_lag(year)
        latest = tri.value(year, lag)
        ultimate = latest
        for j in range(lag - 1, len(factors)):
            ultimate *= factors.factors[j]
        rows.append(
            ReserveRow(
                method="chain_ladder",
                accident_year=year,
                latest=latest,
                ultimate=ultimate,
                reserve=ultimate - latest,
            )
        )
    return rows


def percent_developed(factors: DevelopmentFactors, lag: int) -> float:
    """Expected fraction of ultimate emerged by ``lag`` (1.0 at the end)."""
    if lag < 1:
        raise InsufficientData(f"dev lag must be >= 1, got {lag}")
    remaining = 1.0
    for j in range(lag - 1, len(factors)):
        remaining *= factors.factors[j]
    return 1.0 / remaining


def implied_loss_ratio(tri: LossTriangle, factors: DevelopmentFactors) -> float:
    """Pooled chain-ladder ultimate over pooled premium (the default ELR)."""
    rows = chain_ladder_ultimates(tri, factors)
    total_premium = sum(tri.premium(r.accident_year) for r in rows)
    if total_premium <= 0.0:
        raise MissingPremium("total earned premium is not positive")
    return sum(r.ultimate for r in rows) / total_premium


def implied_loss_ratios_by_year(
    tri: LossTriangle, factors: DevelopmentFactors
) -> dict[int, float]:
    """Per-year chain-ladder implied loss ratios (ultimate / premium)."""
    ratios = {}
    for row in chain_ladder_ultimates(tri, factors):
        premium = tri.premium(row.accident_year)
        if premium <= 0.0:
            raise MissingPremium(f"accident year {row.accident_year} has no premium")
        ratios[row.accident_year] = row.ultimate / premium
    return ratios


def bornhuetter_ferguson(
    tri: LossTriangle,
    factors: DevelopmentFactors,
    elr: float | Mapping[int, float],
) -> list[ReserveRow]:
    """Blend the latest diagonal with a premium-based prior.

    ``reserve_i = premium_i * ELR_i * (1 - percent_developed_i)``; the
    expected loss ratio may be a single pooled value or a per-year map.

    Raises:
        MissingPremium: A year that still needs development has no
            positive premium.
        InsufficientData: Factors do not cover the triangle's lags.
    """
    _check_factor_coverage(tri, factors)
    rows = []
    for year in tri.years:
        lag = tri.latest_lag(year)
        latest = tri.value(year, lag)
        p = percent_developed(factors, lag)
        year_elr = elr[year] if isinstance(elr, Mapping) else float(elr)
        premium = tri.premium(year)
        if premium <= 0.0 and p < 1.0:
            raise MissingPremium(f"accident year {year} has no premium but needs development")
        reserve = premium * year_elr * (1.0 - p)
        rows.append(
            ReserveRow(
                method="bornhuetter_ferguson",
                accident_year=year,
                latest=latest,
                ultimate=latest + reserve,
                reserve=reserve,
            )
        )
    return rows


# --- ODP residual bootstrap -----------------------------------------------------

@dataclass
class BootstrapResult:
    """Simulated reserve distribution from the residual bootstrap."""

    n_sims: int
    reserve_samples: np.ndarray          # total reserve per simulation
    factor_samples: np.ndarray           # (n_sims, n_factors) refit factors
    mean: float
    stddev: float
    quantiles: dict[float, float]
    n_retries: int

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.reserve_samples, q))

    def mean_cumulative_profile(self, horizon: int) -> np.ndarray:
        """Average over simulations of the cumulative growth profile."""
        n_sims, n_factors = self.factor_samples.shape
        profile = np.ones((n_sims, horizon))
        for k in range(1, horizon):
            step = self.factor_samples[:, k - 1] if k - 1 < n_factors else 1.0
            profile[:, k] = profile[:, k - 1] * step
        return profile.mean(axis=0)


def _fitted_incrementals(
    tri: LossTriangle, factors: DevelopmentFactors
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Backward-recursed fitted incrementals and actual incrementals."""
    fitted: dict[tuple[int, int], float] = {}
    actual: dict[tuple[int, int], float] = {}
    for year in tri.years:
        last = tri.latest_lag(year)
        cum = {last: tri.value(year, last)}
        for lag in range(last, 1, -1):
            cum[lag - 1] = cum[lag] / factors.factors[lag - 2]
        prev_fit = 0.0
        prev_act = 0.0
        for lag in range(1, last + 1):
            fitted[(year, lag)] = cum[lag] - prev_fit
            actual[(year, lag)] = tri.value(year, lag) - prev_act
            prev_fit = cum[lag]
            prev_act = tri.value(year, lag)
    return fitted, actual


def _structural_zero_cells(tri: LossTriangle) -> set[tuple[int, int]]:
    """Cells whose residual is zero by construction, not by fit quality.

    The newest year observed only at lag 1 is anchored to itself, and a
    deepest lag reached by a single year pins its own factor; both
    residuals carry no information and are excluded from the resampling
    pool (standard practice for this bootstrap).
    """
    cells: set[tuple[int, int]] = set()
    for year in tri.years:
        if tri.latest_lag(year) == 1:
            cells.add((year, 1))
    deepest = tri.n_dev_lags
    at_deepest = [y for y in tri.years if tri.has(y, deepest)]
    pairs = [y for y in tri.years if tri.has(y, deepest - 1) and tri.has(y, deepest)]
    if len(at_deepest) == 1 and len(pairs) == 1:
        cells.add((at_deepest[0], deepest))
    return cells


def bootstrap_chain_ladder(
    tri: LossTriangle,
    n_sims: int,
    rng: np.random.Generator,
) -> BootstrapResult:
    """Residual bootstrap of the chain ladder (estimation error only).

    Pipeline per simulation: resample adjusted Pearson residuals of the
    incremental triangle with replacement, rebuild a pseudo-triangle
    around the fitted incrementals, refit volume-weighted factors, and
    re-project the actual latest diagonal.  Simulations whose pseudo
    data degenerate (non-positive column sums) are redrawn.

    Args:
        tri: Triangle with at least three accident years.
        n_sims: Number of bootstrap simulations.
        rng: Random generator (owns all resampling draws).

    Raises:
        InsufficientData: Fewer than three accident years.
        DegenerateResiduals: Fitted incrementals non-positive, or
            repeated failures to produce a usable pseudo-triangle.
    """
    if tri.n_accident_years < 3:
        raise InsufficientData(
            f"bootstrap needs >= 3 accident years, got {tri.n_accident_years}"
        )
    factors = age_to_age_factors(tri)
    fitted, actual = _fitted_incrementals(tri, factors)
    for key, m in fitted.items():
        if m <= 0.0:
            raise DegenerateResiduals(f"fitted incremental at {key} is {m!r}")

    keys = sorted(fitted)
    m_arr = np.array([fitted[k] for k in keys])
    d_arr = np.array([actual[k] for k in keys])
    residuals = (d_arr - m_arr) / np.sqrt(m_arr)

    n_cells = len(keys)
    n_params = tri.n_accident_years + len(factors)
    dof = n_cells - n_params
    if dof > 0:
        residuals = residuals * math.sqrt(n_cells / dof)
    else:
        log.warning("bootstrap dof <= 0 (n=%d, p=%d); skipping dof adjustment", n_cells, n_params)

    structural = _structural_zero_cells(tri)
    pool = np.array([r for k, r in zip(keys, residuals) if k not in structural])
    if pool.size == 0:
        pool = residuals

    latest = {year: tri.value(year, tri.latest_lag(year)) for year in tri.years}
    sqrt_m = np.sqrt(m_arr)
    reserve_samples = np.empty(n_sims)
    factor_samples = np.empty((n_sims, len(factors)))
    n_retries = 0
    for s in range(n_sims):
        for attempt in range(50):
            draws = rng.choice(pool, size=n_cells, replace=True)
            pseudo_inc = m_arr + draws * sqrt_m
            pseudo = _refit_factors(tri, keys, pseudo_inc)
            if pseudo is not None:
                break
            n_retries += 1
        else:
            raise DegenerateResiduals(
                "bootstrap could not build a usable pseudo-triangle after 50 attempts"
            )
        factor_samples[s] = pseudo
        total = 0.0
        for year in tri.years:
            ultimate = latest[year]
            for j in range(tri.latest_lag(year) - 1, len(factors)):
                ultimate *= pseudo[j]
            total += ultimate - latest[year]
        reserve_samples[s] = total

    mean = float(reserve_samples.mean())
    quantiles = {q: float(np.quantile(reserve_samples, q)) for q in (0.5, 0.75, 0.95, 0.995)}
    return BootstrapResult(
        n_sims=n_sims,
        reserve_samples=reserve_samples,
        factor_samples=factor_samples,
        mean=mean,
        stddev=float(reserve_samples.std(ddof=1)) if n_sims > 1 else 0.0,
        quantiles=quantiles,
        n_retries=n_retries,
    )


def _refit_factors(
    tri: LossTriangle,
    keys: list[tuple[int, int]],
    pseudo_inc: np.ndarray,
) -> np.ndarray | None:
    """Volume-weighted factors on a pseudo-triangle; None if degenerate."""
    pseudo_cum: dict[tuple[int, int], float] = {}
    inc_by_key = dict(zip(keys, pseudo_inc))
    for year in tri.years:
        running = 0.0
        for lag in range(1, tri.latest_lag(year) + 1):
            running += inc_by_key[(year, lag)]
            pseudo_cum[(year, lag)] = running
    n_factors = tri.n_dev_lags - 1
    out = np.empty(n_factors)
    for lag in range(1, tri.n_dev_lags):
        numer = 0.0
        denom = 0.0
        for year in tri.years:
            if (year, lag) in pseudo_cum and (year, lag + 1) in pseudo_cum:
                numer += pseudo_cum[(year, lag + 1)]
                denom += pseudo_cum[(year, lag)]
        if denom <= 0.0 or numer <= 0.0:
            return None
        out[lag - 1] = numer / denom
    return out


# --- static reserve paths and environment replay -----------------------------------

def chain_ladder_path(
    factors: DevelopmentFactors, initial_loss: float, horizon: int
) -> np.ndarray:
    """Deterministic chain-ladder projection of the starting loss."""
    return initial_loss * factors.cumulative_profile(horizon)


def bornhuetter_ferguson_path(
    factors: DevelopmentFactors,
    elr: float,
    premium: float,
    initial_loss: float,
    horizon: int,
) -> np.ndarray:
    """Expected cumulative losses by lag under the BF emergence pattern.

    Starts at the observed first-lag value and adds the prior's share of
    each remaining development slice: ``L0 + premium * ELR *
    (p_lag - p_1)`` with p the percent-developed curve.
    """
    p1 = percent_developed(factors, 1)
    path = np.empty(horizon)
    for k in range(horizon):
        path[k] = initial_loss + premium * elr * (percent_developed(factors, k + 1) - p1)
    return path


def bootstrap_path(
    result: BootstrapResult, initial_loss: float, horizon: int
) -> np.ndarray:
    """Bootstrap-mean projection of the starting loss."""
    return initial_loss * result.mean_cumulative_profile(horizon)


PathBuilder = Callable[[EpisodeInfo, int], np.ndarray]


def replay_static_policy(
    env: ReserveEnv,
    path_builder: PathBuilder,
    episodes: int,
    episode_offset: int = 0,
) -> Trace:
    """Drive the environment along a per-episode target reserve path.

    At step t the adapter steers toward ``path[t + 1]`` (the level the
    method prescribes for the post-action position, matching how the
    reward is scored): the nearest grid action when the required move is
    within the grid's range, otherwise the extreme action in that
    direction.  The final step holds the path's last value.  All
    episodes step in lockstep.
    """
    paths = env.draw_paths(episodes)
    targets = np.empty((paths.n_episodes, env.horizon))
    for e, info in enumerate(paths.infos):
        targets[e] = path_builder(info, env.horizon)
    last = env.horizon - 1
    return env.rollout(
        paths,
        lambda state: _chase_action(state.reserve, targets[:, min(state.t + 1, last)]),
        episode_offset,
    )


def _chase_action(reserve: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Action indices steering each reserve toward its target (elementwise)."""
    reserve = np.asarray(reserve, dtype=float)
    target = np.asarray(target, dtype=float)
    solvent = reserve > 0.0
    ratio = target / np.where(solvent, reserve, 1.0) - 1.0
    # first minimum in tie-break order: nearest move, then smallest, cut first
    nearest = _TIE_BREAK[np.argmin(np.abs(_ORDERED_GRID - ratio[..., None]), axis=-1)]
    extreme = np.where(ratio > 0.0, len(ACTION_GRID) - 1, 0)
    chased = np.where(np.abs(ratio) <= _MAX_STEP + 1e-12, nearest, extreme)
    bankrupt = np.where(target > 0.0, len(ACTION_GRID) - 1, HOLD_ACTION_INDEX)
    return np.where(solvent, chased, bankrupt)


def _replay_runner(path_builder: PathBuilder) -> Callable[[ReserveEnv, int], Trace]:
    """Model runner replaying one static method's paths (for the eval harness)."""
    return lambda env, episodes: replay_static_policy(env, path_builder, episodes)


def chain_ladder_runner(factors: DevelopmentFactors) -> Callable[[ReserveEnv, int], Trace]:
    return _replay_runner(
        lambda info, horizon: chain_ladder_path(factors, info.initial_loss, horizon)
    )


def bornhuetter_ferguson_runner(
    factors: DevelopmentFactors, elr: float
) -> Callable[[ReserveEnv, int], Trace]:
    return _replay_runner(lambda info, horizon: bornhuetter_ferguson_path(
        factors, elr, info.premium, info.initial_loss, horizon
    ))


def bootstrap_runner(result: BootstrapResult) -> Callable[[ReserveEnv, int], Trace]:
    return _replay_runner(lambda info, horizon: bootstrap_path(result, info.initial_loss, horizon))
