"""The block-wise residual bootstrap against its one-simulation-at-a-time
reference.

``bootstrap_chain_ladder`` draws, refits and accepts pseudo-triangles in
blocks; ``scalar_oracle.scalar_bootstrap_chain_ladder`` is the loop it
replaced.  On identically seeded generators both must give the same
sample bytes, retry count, summary and final generator state, also when
unusable pseudo-triangles force retries across block boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from reserve_rl import baselines
from reserve_rl.baselines import BOOTSTRAP_CHUNK, bootstrap_chain_ladder
from reserve_rl.errors import DataError
from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import SplitSpec, normalize, split_rolling_origin, triangle_from_arrays
from scalar_oracle import scalar_bootstrap_chain_ladder

#: About one pseudo-triangle in five is unusable.
RETRY_ROWS = [[100, 300, 310, 311], [100, 120, 400], [50, 60], [10]]
#: About six pseudo-triangles in seven are unusable, so runs of 50 happen.
FAILING_ROWS = [
    [0.001183, 0.001689, 0.01932, 0.03843, 18.29],
    [1.777, 1.846, 1459.0, 181000.0],
    [0.005011, 3709.0, 3709.0],
    [416.3, 416.8],
    [0.0001422],
]
#: One simulation, counts inside one block, and the edges of one, two and
#: four blocks of the size the bootstrap runs with.
SIM_COUNTS = sorted({
    1, 255, 256, 257, 549, BOOTSTRAP_CHUNK - 1, BOOTSTRAP_CHUNK, BOOTSTRAP_CHUNK + 1,
    2 * BOOTSTRAP_CHUNK + 37, 4 * BOOTSTRAP_CHUNK + 37,
})


def train_split(seed: int):
    split = SplitSpec(a_train=8, a_test=2)
    normalized, _ = normalize(make_synthetic_triangle(SyntheticSpec(), seed=seed), split)
    return split_rolling_origin(normalized, split)[0]


def assert_same_bootstrap(tri, n_sims: int, seed: int):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    a = bootstrap_chain_ladder(tri, n_sims, rng_a)
    b = scalar_bootstrap_chain_ladder(tri, n_sims, rng_b)
    assert a.n_sims == b.n_sims == n_sims
    assert a.reserve_samples.tobytes() == b.reserve_samples.tobytes()
    assert a.factor_samples.tobytes() == b.factor_samples.tobytes()
    assert a.n_retries == b.n_retries
    assert (a.mean, a.stddev, a.quantiles) == (b.mean, b.stddev, b.quantiles)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return a


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_scalar_on_synthetic_splits(seed):
    result = assert_same_bootstrap(train_split(seed), 1000, 100 + seed)
    assert result.stddev > 0.0


@pytest.mark.parametrize("n_sims", SIM_COUNTS)
def test_matches_scalar_around_block_size(n_sims):
    assert_same_bootstrap(train_split(0), n_sims, n_sims)


@pytest.mark.parametrize("n_sims", SIM_COUNTS + [3000])
def test_matches_scalar_with_retries(n_sims):
    result = assert_same_bootstrap(triangle_from_arrays(RETRY_ROWS), n_sims, 3)
    if n_sims >= BOOTSTRAP_CHUNK:
        assert result.n_retries > 0


def test_matches_scalar_on_exact_triangle(textbook_triangle):
    result = assert_same_bootstrap(textbook_triangle, 300, 0)
    assert result.stddev == 0.0


@pytest.mark.parametrize("seed", [0, 2])
def test_matches_scalar_with_long_failure_runs(seed):
    with_retries = assert_same_bootstrap(triangle_from_arrays(FAILING_ROWS), 300, seed)
    # several unusable rows per simulation: runs cross block boundaries
    assert with_retries.n_retries > 4 * with_retries.n_sims


def test_fifty_failures_in_a_row_raise_like_scalar():
    tri = triangle_from_arrays(FAILING_ROWS)
    for bootstrap in (bootstrap_chain_ladder, scalar_bootstrap_chain_ladder):
        with pytest.raises(DataError, match="usable pseudo-triangle after 50 attempts"):
            bootstrap(tri, 300, np.random.default_rng(1))


@pytest.mark.parametrize("chunk", [1, 7])
def test_small_blocks_match_scalar(monkeypatch, chunk):
    """Blocks of one row take the all-usable path for every usable row, so
    failure runs must carry across blocks and reset on either path."""
    monkeypatch.setattr(baselines, "BOOTSTRAP_CHUNK", chunk)
    assert_same_bootstrap(triangle_from_arrays(RETRY_ROWS), 300, 3)
    assert_same_bootstrap(triangle_from_arrays(FAILING_ROWS), 100, 0)
    with pytest.raises(DataError, match="usable pseudo-triangle after 50 attempts"):
        bootstrap_chain_ladder(triangle_from_arrays(FAILING_ROWS), 300, np.random.default_rng(1))


def test_sim_counts_follow_the_block_size():
    """The oracle cases sit at the block size the bootstrap runs with, so
    they move with any retuning of it."""
    assert BOOTSTRAP_CHUNK == baselines.BOOTSTRAP_CHUNK > 1
    around = {BOOTSTRAP_CHUNK - 1, BOOTSTRAP_CHUNK, BOOTSTRAP_CHUNK + 1}
    assert around | {2 * BOOTSTRAP_CHUNK + 37, 4 * BOOTSTRAP_CHUNK + 37} <= set(SIM_COUNTS)


@pytest.mark.parametrize("samples", [
    np.array([2.5]),
    np.array([3.0, -1.0]),
    np.random.default_rng(0).standard_normal(1001),
    np.random.default_rng(1).lognormal(size=50_000),
    np.repeat(np.random.default_rng(2).random(37), 27),
])
def test_one_quantile_call_equals_scalar_calls(samples):
    """The summary's assumption: one ``np.quantile`` call at all four
    levels gives each level's scalar call, bit for bit."""
    levels = (0.5, 0.75, 0.95, 0.995)
    together = np.quantile(samples, levels)
    alone = np.array([np.quantile(samples, q) for q in levels])
    assert together.tobytes() == alone.tobytes()


@pytest.mark.parametrize("population", [1, 2, 7, 52, 2**31 + 5, 2**40 + 3])
@pytest.mark.parametrize("row_length", [1, 5, 52, 55])
def test_bulk_choice_equals_per_row_calls(population, row_length):
    """The block draw's assumption: one ``(k, n)`` ``choice`` draws what
    ``k`` calls of size ``n`` draw, leaving the same generator state."""
    pool = np.linspace(-1.0, 1.0, population) if population < 100 else population
    k = 37
    bulk_rng, row_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    bulk = bulk_rng.choice(pool, size=(k, row_length), replace=True)
    rows = np.stack([row_rng.choice(pool, size=row_length, replace=True) for _ in range(k)])
    assert bulk.tobytes() == rows.tobytes()
    assert bulk_rng.bit_generator.state == row_rng.bit_generator.state
