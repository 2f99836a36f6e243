"""Tail-risk estimators: nearest-rank VaR, tail-mean CVaR, the convex
oracle, and the rolling shortfall buffer."""

from __future__ import annotations

import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve_rl.errors import ConfigError, NumericalError
from reserve_rl.risk import (
    ShortfallBuffer,
    TailEstimate,
    adaptive_alpha,
    cvar_rockafellar_oracle,
    empirical_cvar,
    empirical_var,
    tail_estimate,
)

ONE_TO_HUNDRED = np.arange(1.0, 101.0)


def test_var_nearest_rank_hand_values():
    assert empirical_var(ONE_TO_HUNDRED, 0.95) == 95.0
    assert empirical_var(ONE_TO_HUNDRED, 0.50) == 50.0
    assert empirical_var(ONE_TO_HUNDRED, 0.999) == 100.0
    # the rank clamps to the sample range at the extremes
    assert empirical_var(np.array([3.0]), 0.5) == 3.0


def test_tail_estimate_hand_values():
    est = tail_estimate(ONE_TO_HUNDRED, 0.95)
    assert est.var == 95.0
    # inclusive tail {95..100}: six samples averaging 97.5
    assert est.cvar == pytest.approx(97.5, abs=1e-12)
    assert est.tail_count == 6
    assert est.alpha == 0.95
    assert not est.warmup


def test_oracle_hand_value():
    # the convex form equals the mean of the worst (1-alpha)*N samples
    # when that count is an integer: top five of 1..100 average 98
    assert cvar_rockafellar_oracle(ONE_TO_HUNDRED, 0.95) == pytest.approx(98.0, abs=1e-9)


def test_tie_heavy_sample_distinguishes_estimators():
    samples = np.array([0.0, 0.0, 0.0, 10.0])
    # nearest rank at alpha=0.75 lands on a zero, dragging the inclusive
    # tail mean below the convex value (which matches the top-1 mean)
    est = tail_estimate(samples, 0.75)
    assert est.var == 0.0
    assert est.cvar == pytest.approx(2.5, abs=1e-12)
    assert cvar_rockafellar_oracle(samples, 0.75) == pytest.approx(10.0, abs=1e-12)


def test_estimator_never_exceeds_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        samples = rng.exponential(size=rng.integers(5, 200))
        alpha = rng.uniform(0.5, 0.99)
        est = tail_estimate(samples, alpha)
        assert est.cvar <= cvar_rockafellar_oracle(samples, alpha) + 1e-12
        assert est.var <= est.cvar + 1e-12
        assert est.cvar <= samples.max() + 1e-12


def test_adaptive_alpha_mapping():
    assert adaptive_alpha(0.0) == pytest.approx(0.90)
    assert adaptive_alpha(0.5) == pytest.approx(0.925)
    assert adaptive_alpha(1.0) == pytest.approx(0.95)
    assert adaptive_alpha(7.0) == pytest.approx(0.95)  # volatility is capped
    with pytest.raises(ConfigError, match="volatility proxy must be >= 0, got -0.1"):
        adaptive_alpha(-0.1)


def test_alpha_domain_checked():
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            empirical_var(ONE_TO_HUNDRED, alpha)
        with pytest.raises(ConfigError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            cvar_rockafellar_oracle(ONE_TO_HUNDRED, alpha)


def test_empty_sample_rejected():
    with pytest.raises(NumericalError, match="quantile of an empty sample"):
        empirical_var(np.array([]), 0.9)
    with pytest.raises(NumericalError, match="CVaR of an empty sample"):
        cvar_rockafellar_oracle(np.array([]), 0.9)


def test_buffer_warmup_flag():
    buf = ShortfallBuffer(capacity=64, warmup_min=20)
    for _ in range(19):
        buf.push(1.0)
    est = empirical_cvar(buf, 0.95)
    assert est.warmup
    assert est.cvar == 0.0 and est.var == 0.0 and est.tail_count == 0
    buf.push(1.0)
    est = empirical_cvar(buf, 0.95)
    assert not est.warmup
    assert est.cvar == pytest.approx(1.0)


def test_buffer_fifo_eviction():
    buf = ShortfallBuffer(capacity=5, warmup_min=2)
    for x in range(10):
        buf.push(float(x))
    assert len(buf) == 5
    np.testing.assert_array_equal(buf.as_array(), [5.0, 6.0, 7.0, 8.0, 9.0])
    buf.clear()
    assert len(buf) == 0


def test_buffer_push_validation():
    buf = ShortfallBuffer(capacity=1024, warmup_min=20)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            buf.push(bad)


# --- property tests ----------------------------------------------------------

# integer-valued floats keep tie structure exact under shifts/scales
int_samples = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=80
).map(lambda xs: np.array(xs, dtype=float))
alphas = st.floats(min_value=0.05, max_value=0.99, exclude_min=False)


@given(int_samples, alphas, st.integers(min_value=0, max_value=500))
@settings(max_examples=120, deadline=None)
def test_translation_property(samples, alpha, shift):
    base = tail_estimate(samples, alpha)
    shifted = tail_estimate(samples + float(shift), alpha)
    assert shifted.var == base.var + shift
    assert shifted.cvar == pytest.approx(base.cvar + shift, abs=1e-9)
    assert shifted.tail_count == base.tail_count


@given(int_samples, alphas, st.integers(min_value=1, max_value=64))
@settings(max_examples=120, deadline=None)
def test_positive_homogeneity_property(samples, alpha, k):
    base = tail_estimate(samples, alpha)
    scaled = tail_estimate(samples * float(k), alpha)
    assert scaled.var == k * base.var
    assert scaled.cvar == pytest.approx(k * base.cvar, rel=1e-12)
    assert scaled.tail_count == base.tail_count


@given(int_samples, st.lists(alphas, min_size=2, max_size=6))
@settings(max_examples=120, deadline=None)
def test_cvar_monotone_in_alpha(samples, levels):
    estimates = [tail_estimate(samples, a).cvar for a in sorted(levels)]
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi >= lo - 1e-12


@given(int_samples, alphas)
@settings(max_examples=120, deadline=None)
def test_ordering_and_oracle_dominance(samples, alpha):
    est = tail_estimate(samples, alpha)
    oracle = cvar_rockafellar_oracle(samples, alpha)
    assert samples.min() <= est.var <= samples.max()
    assert est.var - 1e-12 <= est.cvar <= oracle + 1e-9
    assert oracle <= samples.max() + 1e-9


class SortedReferenceBuffer:
    """The estimator the sorted window replaced: copy the FIFO, sort it,
    take the nearest-rank VaR, average the tie-inclusive tail."""

    def __init__(self, capacity: int, warmup_min: int) -> None:
        self.samples: deque[float] = deque(maxlen=capacity)
        self.warmup_min = warmup_min

    def estimate(self, alpha: float) -> TailEstimate:
        if len(self.samples) < self.warmup_min:
            return TailEstimate(alpha=alpha, var=0.0, cvar=0.0, tail_count=0, warmup=True)
        samples = np.fromiter(self.samples, dtype=float, count=len(self.samples))
        n = samples.size
        rank = min(max(math.ceil(alpha * n - 1e-9), 1), n)
        var = float(np.sort(samples)[rank - 1])
        tail = samples[samples >= var]
        return TailEstimate(alpha=alpha, var=var, cvar=float(tail.mean()), tail_count=int(tail.size))


def _bits(est: TailEstimate) -> tuple:
    return (est.var.hex(), est.cvar.hex(), est.tail_count, est.warmup)


# few distinct values force ties; wide floats exercise the tail sum
shortfall_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e6).map(abs),
)
buffer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), shortfall_values),
        st.tuples(st.just("estimate"), alphas),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=300,
)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=10), buffer_ops)
@settings(max_examples=300, deadline=None)
def test_sorted_window_matches_sort_reference(capacity, warmup_min, ops):
    buf = ShortfallBuffer(capacity=capacity, warmup_min=warmup_min)
    ref = SortedReferenceBuffer(capacity, warmup_min)
    for op, arg in ops:
        if op == "push":
            buf.push(arg)
            ref.samples.append(arg)
        elif op == "clear":
            buf.clear()
            ref.samples.clear()
        else:
            assert _bits(empirical_cvar(buf, arg)) == _bits(ref.estimate(arg))
        assert [x.hex() for x in buf.as_array().tolist()] == [x.hex() for x in ref.samples]
    np.testing.assert_array_equal(buf.as_array(), np.array(ref.samples, dtype=float))


@pytest.mark.parametrize("capacity", [7, 64, 1024])
def test_sorted_window_matches_sort_reference_on_long_streams(capacity):
    """Random shortfalls with zero ties, across many evictions: the tail
    mean must sum the same values in the same order as the reference."""
    rng = np.random.default_rng(capacity)
    buf = ShortfallBuffer(capacity=capacity, warmup_min=20)
    ref = SortedReferenceBuffer(capacity, 20)
    values = np.maximum(0.0, rng.normal(0.0, 1.0, size=3 * capacity + 500)).tolist()
    for value, alpha in zip(values, rng.uniform(0.05, 0.99, size=len(values)).tolist()):
        buf.push(value)
        ref.samples.append(value)
        assert _bits(empirical_cvar(buf, alpha)) == _bits(ref.estimate(alpha))


# --- batched replay ------------------------------------------------------------

def test_row_reduce_sums_each_row_as_a_lone_array():
    """``push_many`` sums tails of one length as the rows of a C-contiguous
    block; on the installed numpy each row of ``np.add.reduce(block,
    axis=1)`` must have the bytes of ``np.add.reduce`` on that row alone.
    Lengths 1-1100 cover the 8-lane unrolled loop and the pairwise
    recursion above 128."""
    rng = np.random.default_rng(9)
    for length in range(1, 1101):
        rows = 1 + length % 4
        block = rng.exponential(size=(rows, length)) * 10.0 ** rng.integers(-6, 7, (rows, length))
        assert [s.tobytes() for s in np.add.reduce(block, axis=1)] == [
            np.add.reduce(row.copy()).tobytes() for row in block
        ]


def _scalar_replay(buf: ShortfallBuffer, shortfalls, alphas) -> list[str]:
    """What ``push_many`` replaces: a push and a tail estimate per step."""
    cvars = []
    for shortfall, alpha in zip(shortfalls, alphas):
        buf.push(shortfall)
        cvars.append(empirical_cvar(buf, alpha).cvar.hex())
    return cvars


def _replay_values(rng: np.random.Generator, n: int, zero_share: float, ties: bool) -> list[float]:
    values = rng.choice([0.5, 1.0, 3.0], n) if ties else rng.exponential(size=n)
    zero = np.where(rng.random(n) < 0.5, 0.0, -0.0)  # push stores -0.0 as 0.0
    return np.where(rng.random(n) < zero_share, zero, values).tolist()


@given(
    capacity=st.one_of(st.integers(min_value=1, max_value=24), st.just(1024)),
    warmup_min=st.integers(min_value=1, max_value=25),
    prior=st.integers(min_value=0, max_value=1100),
    batch=st.integers(min_value=0, max_value=600),
    zero_share=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    ties=st.booleans(),
    # 0.95 * 100 is 95.00000000000001: the rank's float guard must hold
    fixed_alpha=st.one_of(st.none(), st.sampled_from([0.9, 0.95]), alphas),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_push_many_matches_scalar_pushes(
    capacity, warmup_min, prior, batch, zero_share, ties, fixed_alpha, seed
):
    """Zero ties force VaR 0 and whole-window tails; long batches evict
    through a non-empty prior window and, at capacity 1024, span several
    blocks of the tail pass."""
    rng = np.random.default_rng(seed)
    batched = ShortfallBuffer(capacity, warmup_min)
    scalar = ShortfallBuffer(capacity, warmup_min)
    for value in _replay_values(rng, prior, zero_share, ties):
        batched.push(value)
        scalar.push(value)
    shortfalls = _replay_values(rng, batch, zero_share, ties)
    levels = rng.uniform(0.05, 0.99, batch) if fixed_alpha is None else np.full(batch, fixed_alpha)
    got = batched.push_many(
        np.array(shortfalls), levels if fixed_alpha is None else fixed_alpha
    )
    assert got.shape == (batch,)
    assert [x.hex() for x in got.tolist()] == _scalar_replay(scalar, shortfalls, levels.tolist())
    assert batched.as_array().tobytes() == scalar.as_array().tobytes()
    assert len(batched) == len(scalar)
    if len(scalar):
        assert _bits(empirical_cvar(batched, 0.9)) == _bits(empirical_cvar(scalar, 0.9))
        assert _bits(empirical_cvar(batched, 0.05)) == _bits(empirical_cvar(scalar, 0.05))


@pytest.mark.parametrize("shortfalls, levels", [
    ([1.0, -0.1, 2.0], [0.9, 0.9, 0.9]),
    ([1.0, float("nan")], [0.9, 0.9]),
    ([float("inf")], [0.9]),
    ([1.0, 2.0], [0.9, 1.0]),
    ([1.0, 2.0], [0.0, 0.9]),
    ([1.0], [float("nan")]),
    ([1.0, 2.0, -1.0], [0.9, 1.5, 0.9]),   # the alpha at step 1 comes first
    ([1.0, -1.0, 2.0], [0.9, 0.9, 1.5]),   # the shortfall at step 1 comes first
    ([1.0, -1.0], [0.9, -0.5]),            # one step: its shortfall first
])
def test_push_many_rejects_what_the_scalar_path_rejects(shortfalls, levels):
    scalar = ShortfallBuffer(capacity=4, warmup_min=1)
    with pytest.raises((ValueError, ConfigError),
                       match="shortfalls must be finite|alpha must be in") as scalar_error:
        _scalar_replay(scalar, shortfalls, levels)
    batched = ShortfallBuffer(capacity=4, warmup_min=1)
    batched.push(5.0)
    with pytest.raises(scalar_error.type, match=f"^{re.escape(str(scalar_error.value))}$"):
        batched.push_many(np.array(shortfalls), np.array(levels))
    assert batched.as_array().tolist() == [5.0]


def test_adaptive_alpha_on_arrays_matches_python_min():
    volatility = [0.0, 0.3, 0.7, 1.0, 7.0, float("nan")]  # min(1.0, nan) is 1.0
    expected = [0.90 + 0.05 * min(1.0, v) for v in volatility]
    assert adaptive_alpha(np.array(volatility)).tolist() == expected
    assert [float(adaptive_alpha(v)) for v in volatility] == expected
    with pytest.raises(ConfigError, match="volatility proxy must be >= 0, got -0.1"):
        adaptive_alpha(np.array([0.2, -0.1]))
