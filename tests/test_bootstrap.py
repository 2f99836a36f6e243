"""The block-wise residual bootstrap against its one-simulation-at-a-time
reference.

``bootstrap_chain_ladder`` and ``bootstrap_mean_profile`` consume the
pseudo-triangles that ``_factor_blocks`` draws, refits and accepts in
blocks; ``scalar_oracle.scalar_bootstrap_chain_ladder`` is the loop they
replaced.  On identically seeded generators they must give the same
factor and sample bytes, mean profile, retry count, summary and final
generator state, also when unusable pseudo-triangles force retries across
block boundaries.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import triangle_from_arrays

from reserve_rl import baselines
from reserve_rl.baselines import BOOTSTRAP_CHUNK, bootstrap_chain_ladder, bootstrap_mean_profile
from reserve_rl.errors import DataError
from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import SplitSpec, normalize, split_rolling_origin
from scalar_oracle import bootstrap_path, scalar_bootstrap_chain_ladder

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
#: Nine years whose reserves differ by orders of magnitude, so adding them
#: in another order than oldest first changes the sum's bits.
MIXED_SCALE_ROWS = [
    [5.4641, 9.311, 10.8218, 14.8102, 17.5279, 18.913, 20.851, 22.1553, 22.9948],
    [76.9631, 112.8504, 154.488, 184.7247, 227.6081, 253.2066, 269.1061, 277.0276],
    [0.2057, 0.3605, 0.6475, 0.8509, 0.8755, 0.9021, 0.9396],
    [0.2697, 0.4966, 0.9718, 1.0441, 1.1163, 1.2509],
    [537.6144, 776.3754, 877.9453, 1045.7921, 1127.2983],
    [130.2577, 259.9223, 313.2584, 348.1608],
    [3.649, 5.3188, 6.2835],
    [30.6271, 34.0928],
    [79.9714],
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
    rng_a, rng_b, rng_blocks, rng_profile = (np.random.default_rng(seed) for _ in range(4))
    a = bootstrap_chain_ladder(tri, n_sims, rng_a)
    b, factor_samples = scalar_bootstrap_chain_ladder(tri, n_sims, rng_b)
    blocks = list(baselines._factor_blocks(tri, n_sims, rng_blocks))
    profile = bootstrap_mean_profile(tri, n_sims, rng_profile)
    assert a.n_sims == b.n_sims == n_sims
    assert a.reserve_samples.tobytes() == b.reserve_samples.tobytes()
    factors = np.concatenate([block for block, _ in blocks], axis=1)
    assert factors.T.tobytes() == factor_samples.tobytes()
    assert profile.tobytes() == bootstrap_path(factor_samples, 1.0, tri.n_dev_lags).tobytes()
    assert a.n_retries == b.n_retries == sum(retries for _, retries in blocks)
    assert (a.mean, a.stddev, a.quantiles) == (b.mean, b.stddev, b.quantiles)
    for rng in (rng_a, rng_blocks, rng_profile):
        assert rng.bit_generator.state == rng_b.bit_generator.state
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
    for bootstrap in (bootstrap_chain_ladder, bootstrap_mean_profile,
                      scalar_bootstrap_chain_ladder):
        with pytest.raises(DataError, match="usable pseudo-triangle after 50 attempts"):
            bootstrap(tri, 300, np.random.default_rng(1))


@pytest.mark.parametrize("chunk", [1, 7])
def test_small_blocks_match_scalar(monkeypatch, chunk):
    """Blocks of one row take the all-usable path for every usable row, so
    failure runs must carry across blocks and reset on either path.  The
    years' reserves add oldest first also in a block of one row."""
    monkeypatch.setattr(baselines, "BOOTSTRAP_CHUNK", chunk)
    assert_same_bootstrap(triangle_from_arrays(MIXED_SCALE_ROWS), 200, 0)
    assert_same_bootstrap(triangle_from_arrays(RETRY_ROWS), 300, 3)
    assert_same_bootstrap(triangle_from_arrays(FAILING_ROWS), 100, 0)
    for bootstrap in (bootstrap_chain_ladder, bootstrap_mean_profile):
        with pytest.raises(DataError, match="usable pseudo-triangle after 50 attempts"):
            bootstrap(triangle_from_arrays(FAILING_ROWS), 300, np.random.default_rng(1))


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


@pytest.mark.parametrize("population", [1, 2, 7, 52, 2**31 + 5])
@pytest.mark.parametrize("shape", [(1, 1), (37, 5), (37, 52), (1024, 55)])
def test_integers_and_take_equal_choice(population, shape):
    """The block draw: ``integers`` indices taken from the pool with
    ``mode="clip"`` into a buffer give ``choice``'s values and leave the
    generator where ``choice`` leaves it."""
    pool = np.linspace(-1.0, 1.0, population) if population < 100 else None
    for seed in range(5):
        choice_rng, take_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        index = take_rng.integers(0, population, size=shape, dtype=np.int64)
        if pool is None:  # too large to hold: compare the indices choice draws
            assert choice_rng.choice(population, size=shape).tobytes() == index.tobytes()
        else:
            taken = np.empty(shape)
            np.take(pool, index, out=taken, mode="clip")
            chosen = choice_rng.choice(pool, size=shape, replace=True)
            assert chosen.tobytes() == taken.tobytes()
        assert choice_rng.bit_generator.state == take_rng.bit_generator.state


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("consumer", [bootstrap_chain_ladder, bootstrap_mean_profile])
def test_memory_does_not_grow_with_lags(consumer):
    """Each consumer holds the ``(n_sims,)`` samples (or only a running
    sum) and block-sized buffers: the draws, their indices, the
    incrementals and the refit's sums, under four blocks of draws in all.
    Keeping every simulation's refit factors, ``(n_sims, n_factors)``,
    goes past that at eight blocks."""
    tri = train_split(0)
    n_sims = 8 * BOOTSTRAP_CHUNK
    n_cells = sum(tri.latest_lag(year) for year in tri.years)
    bound = n_sims * 8 + 4 * BOOTSTRAP_CHUNK * n_cells * 8
    consumer(tri, 100, np.random.default_rng(0))  # first-call set-up outside the trace
    peak = _traced_peak(lambda: consumer(tri, n_sims, np.random.default_rng(0)))
    assert peak < bound, (peak, bound)
