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

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .env import ACTION_GRID, HOLD_ACTION, TIE_BREAK_ORDER, LossPaths, Model, ReserveEnv, Trace
from .errors import ConfigError, DataError
from .triangles import DevelopmentFactors, LossTriangle, age_to_age_factors

log = logging.getLogger(__name__)

#: Relative chase gap beyond which the replay jumps to the extreme action.
_MAX_STEP = max(ACTION_GRID)
_ORDERED_GRID = np.asarray(ACTION_GRID)[TIE_BREAK_ORDER]


@dataclass(frozen=True)
class ReserveRow:
    """One accident year's point estimate under one method."""

    method: str
    accident_year: int
    latest: float
    ultimate: float
    reserve: float


def _check_factor_coverage(tri: LossTriangle, factors: DevelopmentFactors) -> None:
    if len(factors) < tri.n_dev_lags - 1:
        raise DataError(
            f"{len(factors)} factors cannot develop a {tri.n_dev_lags}-lag triangle"
        )


def chain_ladder_ultimates(
    tri: LossTriangle, factors: DevelopmentFactors
) -> list[ReserveRow]:
    """Project each accident year's latest incurred to ultimate.

    ``ultimate_i = latest_i * prod(f_j for j >= current lag)`` and the
    reserve is the ultimate minus the latest observed value.

    Raises:
        DataError: Factors do not cover the triangle's lags.
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
        raise DataError(f"dev lag must be >= 1, got {lag}")
    remaining = 1.0
    for j in range(lag - 1, len(factors)):
        remaining *= factors.factors[j]
    return 1.0 / remaining


def implied_loss_ratio(tri: LossTriangle, factors: DevelopmentFactors) -> float:
    """Pooled chain-ladder ultimate over pooled premium (the default ELR)."""
    rows = chain_ladder_ultimates(tri, factors)
    total_premium = sum(tri.premium(r.accident_year) for r in rows)
    if total_premium <= 0.0:
        raise DataError("total earned premium is not positive")
    return sum(r.ultimate for r in rows) / total_premium


def bornhuetter_ferguson(
    tri: LossTriangle,
    factors: DevelopmentFactors,
    elr: float | Mapping[int, float],
) -> list[ReserveRow]:
    """Blend the latest diagonal with a premium-based prior.

    ``reserve_i = premium_i * ELR_i * (1 - percent_developed_i)``; the
    expected loss ratio may be a single pooled value or a per-year map.

    Raises:
        DataError: A year that still needs development has no
            positive premium, or the factors do not cover the
            triangle's lags.
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
            raise DataError(f"accident year {year} has no premium but needs development")
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
    mean: float
    stddev: float
    quantiles: dict[float, float]
    n_retries: int

    @classmethod
    def from_samples(cls, reserve_samples: np.ndarray, n_retries: int) -> "BootstrapResult":
        n_sims = reserve_samples.size
        levels = (0.5, 0.75, 0.95, 0.995)
        return cls(
            n_sims=n_sims,
            reserve_samples=reserve_samples,
            mean=float(reserve_samples.mean()),
            stddev=float(reserve_samples.std(ddof=1)) if n_sims > 1 else 0.0,
            quantiles=dict(zip(levels, np.quantile(reserve_samples, levels).tolist())),
            n_retries=n_retries,
        )


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


#: Bootstrap rows drawn and refit together; bounds the block arrays' memory.
BOOTSTRAP_CHUNK = 1024
#: Consecutive unusable pseudo-triangles after which the bootstrap gives up.
MAX_REFIT_ATTEMPTS = 50


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

    Each block of refit factors is re-projected as it arrives and then
    dropped, so memory holds the ``(n_sims,)`` samples and a few
    block-sized buffers, whatever the number of lags.  Factor ``j``
    develops every year whose latest lag is at most ``j + 1``; each year's
    ultimate multiplies its factors in ascending order and the years' reserves
    add oldest first from 0.0, as one simulation at a time would.

    Args:
        tri: Triangle with at least three accident years.
        n_sims: Number of bootstrap simulations.
        rng: Random generator (owns all resampling draws).

    Raises:
        DataError: As :func:`_factor_blocks`.
    """
    lags = np.array([tri.latest_lag(year) for year in tri.years])
    latest = np.array([tri.value(year, lag) for year, lag in zip(tri.years, lags.tolist())])
    latest_col = latest[:, None]
    developed_by = [_rows(lags <= j + 1) for j in range(tri.n_dev_lags - 1)]
    samples = np.empty(n_sims)
    ultimates = np.empty(latest.size * min(BOOTSTRAP_CHUNK, n_sims))
    filled = n_retries = 0
    for block, retries in _factor_blocks(tri, n_sims, rng):
        k = block.shape[1]
        ultimate = ultimates[:latest.size * k].reshape(latest.size, k)
        ultimate[...] = latest_col
        for j, rows in enumerate(developed_by):
            ultimate[rows] *= block[j]
        ultimate -= latest_col
        total = samples[filled:filled + k]
        if k > 1:  # over two or more columns numpy adds the rows in order
            np.add.reduce(ultimate, axis=0, out=total, initial=0.0)
        else:  # over one column of eight or more years it would add pairwise
            total[...] = 0.0
            for reserve in ultimate:
                total += reserve
        filled += k
        n_retries += retries
    return BootstrapResult.from_samples(samples, n_retries)


def bootstrap_mean_profile(tri: LossTriangle, n_sims: int, rng: np.random.Generator) -> np.ndarray:
    """Average over the bootstrap's simulations of the cumulative growth
    profile ``1, f_1, f_1 f_2, ...``: the ``(n_dev_lags,)`` curve
    :func:`bootstrap_targets` scales.

    Draws what :func:`bootstrap_chain_ladder` draws on an identically
    seeded ``rng``, raises what it raises, and keeps one running sum.  The
    sum adds the simulations one at a time in stream order: each block's
    profiles sit simulation-major below the running total, and numpy sums
    a C-ordered array along axis 0 row by row (over two or more columns).
    So the mean has the bits of averaging a whole ``(n_sims, n_dev_lags)``
    profile array with ``mean(axis=0)``.
    """
    n_factors = tri.n_dev_lags - 1
    profiles = np.empty((min(BOOTSTRAP_CHUNK, n_sims) + 1, n_factors + 1))
    profiles[1:, 0] = 1.0
    total = np.zeros(n_factors + 1)
    for block, _ in _factor_blocks(tri, n_sims, rng):
        k = block.shape[1]
        running = profiles[:k + 1]
        running[0] = total
        for j in range(n_factors):
            np.multiply(running[1:, j], block[j], out=running[1:, j + 1])
        total = np.add.reduce(running, axis=0)
    return total / n_sims


def _rows(mask: np.ndarray) -> slice | np.ndarray:
    """The indices where ``mask`` holds, as a slice when they are contiguous
    (always, for years in order of a run-off triangle's diagonal)."""
    index = np.flatnonzero(mask)
    if index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _factor_blocks(
    tri: LossTriangle, n_sims: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, int]]:
    """The bootstrap's refit factors, ``n_sims`` in all, as lag-major
    ``(n_factors, k)`` blocks in stream order, each with its retries: the
    unusable pseudo-triangles drawn in the same block.

    Simulations run in blocks of up to :data:`BOOTSTRAP_CHUNK` rows, never
    more rows than are still needed: one draw fills the block, the rows
    refit together, and they are accepted in stream order, an unusable row
    counting as a retry.  So every drawn row is used, and factors, retries
    and the generator's final state are bit for bit those of drawing and
    refitting one simulation at a time (the sums keep that loop's order).
    A block is drawn as ``rng.choice(pool, size=(k, n), replace=True)``
    draws it: ``rng.integers`` indices, then ``np.take`` into one buffer
    reused for every block (with ``mode="clip"``, which never clips an
    index in range; the default mode would copy through a temporary).
    This relies on a ``(k, n)`` draw giving what ``k`` draws of size ``n``
    give.  Blocks are refit lag-major: each array operation runs over
    simulations.

    Raises:
        DataError: Fewer than three accident years, fitted incrementals
            non-positive, or :data:`MAX_REFIT_ATTEMPTS` unusable
            pseudo-triangles in a row (the generator may then have drawn
            past the last of them).
    """
    keys, m_arr, pool = _residual_pool(tri)
    n_cells = len(keys)
    m_col = m_arr[:, None]
    sqrt_m = np.sqrt(m_col)
    drawn = np.empty(min(BOOTSTRAP_CHUNK, n_sims) * n_cells)
    incrementals = np.empty_like(drawn)
    failures = 0  # unusable rows since the last usable one, across blocks
    filled = 0
    while filled < n_sims:
        k = min(BOOTSTRAP_CHUNK, n_sims - filled)
        draws = drawn[:k * n_cells].reshape(k, n_cells)
        np.take(pool, rng.integers(0, pool.size, size=draws.shape, dtype=np.int64),
                out=draws, mode="clip")
        inc = np.multiply(draws.T, sqrt_m, out=incrementals[:k * n_cells].reshape(n_cells, k))
        inc += m_col
        block, usable = _refit_block(tri, inc)
        if usable.all():
            filled += k
            failures = 0
            yield block, 0
            continue
        for ok in usable.tolist():
            failures = 0 if ok else failures + 1
            if failures == MAX_REFIT_ATTEMPTS:
                raise DataError(
                    "bootstrap could not build a usable pseudo-triangle after "
                    f"{MAX_REFIT_ATTEMPTS} attempts"
                )
        kept = block[:, usable]
        filled += kept.shape[1]
        yield kept, k - kept.shape[1]


def _residual_pool(tri: LossTriangle) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Observed cells in (year, lag) order, their fitted incrementals, and
    the pool of dof-adjusted Pearson residuals to resample from.

    Raises:
        DataError: Fewer than three accident years, or a fitted
            incremental is non-positive.
    """
    if tri.n_accident_years < 3:
        raise DataError(
            f"bootstrap needs >= 3 accident years, got {tri.n_accident_years}"
        )
    factors = age_to_age_factors(tri)
    fitted, actual = _fitted_incrementals(tri, factors)
    for key, m in fitted.items():
        if m <= 0.0:
            raise DataError(f"fitted incremental at {key} is {m!r}")

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
    return keys, m_arr, pool


def _refit_block(tri: LossTriangle, inc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Volume-weighted factors of a block of pseudo-triangles at once.

    Column s of ``inc`` holds pseudo-triangle s's incrementals in (year,
    lag) order, so each year's cells are adjacent rows; they are summed
    in place.  Returns the ``(n_factors, k)`` factors and the ``(k,)``
    mask of usable columns: a column is unusable when some factor's
    numerator or denominator is not positive, and its factors are then
    meaningless.

    The sums keep a per-triangle loop's order, so the factors carry its
    bits: cumulatives are running sums, one row add per lag (starting
    from the first incremental rather than 0.0 plus it, which could differ
    only for a -0.0 that positive fitted incrementals never produce;
    ``np.add.accumulate`` adds alike but five times slower, its short lag
    axis innermost), and each factor's column sums add the contributing
    years one at a time, oldest first, from 0.0 (a numpy reduction over
    eight or more years would sum pairwise).
    """
    numer = np.zeros((tri.n_dev_lags - 1, inc.shape[1]))
    denom = np.zeros_like(numer)
    start = 0
    for year in tri.years:
        last = tri.latest_lag(year)
        cum = inc[start:start + last]
        for lag in range(1, last):
            cum[lag] += cum[lag - 1]
        # this year feeds the factors whose lags j and j+1 it has observed
        numer[:last - 1] += cum[1:]
        denom[:last - 1] += cum[:-1]
        start += last
    # "not (<= 0)": a NaN sum passes, as in a per-triangle "<= 0.0" test
    usable = ~((denom <= 0.0) | (numer <= 0.0)).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(numer, denom, out=numer), usable


# --- static reserve paths and environment replay -----------------------------------

#: Static reserve targets of a run: ``(initial losses (E,), premiums (E,),
#: horizon) -> (E, horizon)``, row e the path episode e chases.
StaticTargets = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def _scaled_profile(profile: Callable[[int], np.ndarray]) -> StaticTargets:
    """Each starting loss times ``profile(horizon)``, computed once per horizon."""
    profile = functools.cache(profile)
    return lambda loss, _premium, horizon: np.multiply.outer(loss, profile(horizon))


def chain_ladder_targets(factors: DevelopmentFactors) -> StaticTargets:
    """Deterministic chain-ladder projection of each starting loss."""
    return _scaled_profile(factors.cumulative_profile)


def bornhuetter_ferguson_targets(factors: DevelopmentFactors, elr: float) -> StaticTargets:
    """Expected cumulative losses by lag under the BF emergence pattern.

    Starts at the observed first-lag value and adds the prior's share of
    each remaining development slice: ``L0 + premium * ELR * (p_lag -
    p_1)``, evaluated left to right, with p the percent-developed curve.
    Each p is the scalar :func:`percent_developed` (a reversed ``cumprod``
    would multiply in another order), once per horizon.
    """
    curve = functools.cache(lambda horizon: np.array(
        [percent_developed(factors, lag) for lag in range(1, horizon + 1)]
    ))

    def targets(loss: np.ndarray, premium: np.ndarray, horizon: int) -> np.ndarray:
        p = curve(horizon)
        return loss[:, None] + np.multiply.outer(premium * elr, p - p[0])

    return targets


def bootstrap_targets(profile: np.ndarray) -> StaticTargets:
    """Bootstrap-mean projection of each starting loss, ``profile`` being
    :func:`bootstrap_mean_profile`'s; past its last lag the path is flat."""
    last = profile.size - 1
    return _scaled_profile(lambda horizon: profile[np.minimum(np.arange(horizon), last)])


def replay_static_policy(
    env: ReserveEnv,
    targets: StaticTargets,
    episodes: int,
    paths: LossPaths,
) -> Trace:
    """Drive the environment along a per-episode target reserve path over
    the ``episodes`` episodes of ``paths``.

    At step t the adapter steers toward ``path[t + 1]`` (the level the
    method prescribes for the post-action position, matching how the
    reward is scored): the nearest grid action when the required move is
    within the grid's range, otherwise the extreme action in that
    direction.  The final step holds the path's last value.  The target
    paths are built once for the run, from the episodes' initial losses
    and premiums, and all episodes step in lockstep.

    Raises:
        ConfigError: ``episodes`` is not the number of episodes in ``paths``.
    """
    if episodes != paths.n_episodes:
        raise ConfigError(f"episodes is {episodes} but the paths hold {paths.n_episodes}")
    target = targets(paths.loss[:, 0], paths.premium, env.horizon)
    last = env.horizon - 1
    return env.rollout(
        paths, lambda state: _chase_action(state.reserve, target[:, min(state.t + 1, last)])
    )


def static_model(targets: StaticTargets) -> Model:
    """The model replaying ``targets`` (the same for every seed)."""
    # looked up on the module at call time, so a wrapper installed there sees it
    return lambda env, _seed, paths: replay_static_policy(env, targets, paths.n_episodes, paths)


def classical_models(factors: DevelopmentFactors, elr: float,
                     boot_profile: np.ndarray) -> dict[str, Model]:
    """The three methods' models by report name, Bornhuetter-Ferguson at
    ``elr`` and the bootstrap along ``boot_profile`` (:func:`bootstrap_mean_profile`)."""
    return {"chain_ladder": static_model(chain_ladder_targets(factors)),
            "bornhuetter_ferguson": static_model(bornhuetter_ferguson_targets(factors, elr)),
            "bootstrap": static_model(bootstrap_targets(boot_profile))}


def _chase_action(reserve: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Action indices steering each reserve toward its target (elementwise)."""
    reserve = np.asarray(reserve, dtype=float)
    target = np.asarray(target, dtype=float)
    solvent = reserve > 0.0
    ratio = target / np.where(solvent, reserve, 1.0) - 1.0
    # first minimum in tie-break order: nearest move, then smallest, cut first
    nearest = TIE_BREAK_ORDER[np.argmin(np.abs(_ORDERED_GRID - ratio[..., None]), axis=-1)]
    extreme = np.where(ratio > 0.0, len(ACTION_GRID) - 1, 0)
    chased = np.where(np.abs(ratio) <= _MAX_STEP + 1e-12, nearest, extreme)
    bankrupt = np.where(target > 0.0, len(ACTION_GRID) - 1, HOLD_ACTION)
    return np.where(solvent, chased, bankrupt)
