"""Empirical tail-risk functionals over recent reserve shortfalls.

The environment penalizes the conditional tail mean of a rolling buffer
of shortfalls.  Two independent computations of that tail are kept side
by side on purpose:

* :func:`empirical_cvar` -- the production estimator: nearest-rank
  value-at-risk, then the mean of all samples at or above it,
* :func:`cvar_rockafellar_oracle` -- a brute-force minimization of the
  convex generator ``z + E[(s - z)+] / (1 - alpha)``, used by tests as
  a cross-check that never shares code with the estimator.

With ``(1 - alpha) * N`` integer and distinct samples the oracle equals
the mean of the top ``(1 - alpha) * N`` samples exactly; the production
estimator additionally includes the boundary order statistic itself
(and any ties), which can only pull the tail mean down.  Tests pin both
behaviours.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

#: Guard against float fuzz when alpha * N is an exact integer
#: (e.g. 0.95 * 100 evaluates to 95.00000000000001).
_RANK_EPS = 1e-9

#: Window samples per block of :meth:`ShortfallBuffer.push_many`'s tail
#: pass: a block takes ``max(1, TAIL_BLOCK // capacity)`` queries (256 at the
#: default capacity of 1024), so its gathered tails stay within about
#: TAIL_BLOCK floats (2 MB) whatever the capacity.
TAIL_BLOCK = 256 * 1024


@dataclass(frozen=True)
class TailEstimate:
    """Result of a tail computation on a shortfall sample.

    ``warmup`` is True when the buffer had too few samples for a stable
    estimate; in that case var/cvar are zero and tail_count is 0.
    """

    alpha: float
    var: float
    cvar: float
    tail_count: int
    warmup: bool = False


class ShortfallBuffer:
    """Fixed-capacity FIFO of recent non-negative shortfalls.

    Oldest samples are evicted once ``capacity`` is reached.  The buffer
    deliberately spans episode boundaries: the tail estimate should
    reflect recent operating history, not just the current episode.
    The window is one array, oldest first.
    """

    def __init__(self, capacity: int = 1024, warmup_min: int = 20) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if warmup_min < 1:
            raise ValueError(f"warmup_min must be >= 1, got {warmup_min}")
        self.capacity = capacity
        self.warmup_min = warmup_min
        self._window = np.zeros(0)

    def push(self, shortfall: float) -> None:
        if not math.isfinite(shortfall) or shortfall < 0.0:
            raise ValueError(f"shortfalls must be finite and >= 0, got {shortfall!r}")
        # + 0.0 stores -0.0 as 0.0, so order statistics have one zero
        kept = self._window[max(0, self._window.size + 1 - self.capacity):]
        self._window = np.append(kept, float(shortfall) + 0.0)

    def clear(self) -> None:
        self._window = np.zeros(0)

    def __len__(self) -> int:
        return self._window.size

    def as_array(self) -> np.ndarray:
        return self._window.copy()

    def push_many(self, shortfalls: np.ndarray, alphas: float | np.ndarray) -> np.ndarray:
        """Push a 1-d run of shortfalls in order; the tail mean after each push.

        Entry i is ``empirical_cvar(self, alphas[i]).cvar`` taken right after
        ``push(shortfalls[i])``, bit for bit (0.0 while warming up), and the
        buffer ends as those pushes leave it.  ``alphas`` holds one level per
        shortfall, or is one level for all of them.

        The window is sorted once on entry, then one pass over that sorted
        list finds every nearest-rank VaR; :func:`_tail_means` then sums
        the tails one block of queries at a time (see :data:`TAIL_BLOCK`).

        Raises:
            ValueError: A shortfall is not finite or is negative.
            ConfigError: An alpha is outside (0, 1).
            The first bad step decides which (a step's shortfall is checked
            before its alpha, as in ``push`` then ``empirical_cvar``), and the
            buffer is left as it was.
        """
        shortfalls = np.asarray(shortfalls, dtype=float)
        alphas = np.broadcast_to(np.asarray(alphas, dtype=float), shortfalls.shape)
        bad_shortfall = ~(np.isfinite(shortfalls) & (shortfalls >= 0.0))
        bad = bad_shortfall | ~((alphas > 0.0) & (alphas < 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_shortfall[i]:
                raise ValueError(
                    f"shortfalls must be finite and >= 0, got {shortfalls[i].item()!r}"
                )
            _check_alpha(alphas[i].item())

        cap, n0, q = self.capacity, len(self), shortfalls.size
        # + 0.0 stores -0.0 as 0.0, as push does
        stream = np.concatenate((self._window, shortfalls + 0.0))
        hi = np.arange(n0 + 1, n0 + q + 1)
        size = np.minimum(hi, cap)
        lo = hi - size  # after push i the window is stream[lo[i]:hi[i]]
        ranks = np.clip(np.ceil(alphas * size - _RANK_EPS), 1, size).astype(int)

        values = stream.tolist()
        ordered = np.sort(self._window).tolist()
        var = []
        for value, start, rank in zip(values[n0:], lo.tolist(), ranks.tolist()):
            if start:
                del ordered[bisect_left(ordered, values[start - 1])]
            insort(ordered, value)
            var.append(ordered[rank - 1])

        self._window = stream[-cap:].copy()

        var = np.array(var)
        cvar = np.zeros(q)
        block = max(1, TAIL_BLOCK // cap)
        for a in range(int(np.searchsorted(size, self.warmup_min)), q, block):
            b = min(a + block, q)
            cvar[a:b] = _tail_means(stream, lo[a:b], hi[a:b], var[a:b])
        return cvar


def _tail_means(stream: np.ndarray, lo: np.ndarray, hi: np.ndarray, var: np.ndarray) -> np.ndarray:
    """For each query j, the mean of the samples ``>= var[j]`` in
    ``stream[lo[j]:hi[j]]``.

    A mask over the samples in reach of the queries that are at least the
    smallest VaR picks each query's tail in FIFO order.  With the queries
    sorted by tail length, the tails of one length form a C-contiguous
    (queries, length) block, and numpy sums each row of
    ``np.add.reduce(block, axis=1)`` exactly as it sums a lone tail
    (``tests/test_risk.py`` pins this), so each mean is
    ``float(np.add.reduce(tail)) / tail.size`` bit for bit.
    """
    span = stream[lo[0]:hi[-1]]
    pos = np.flatnonzero(span >= var.min())
    vals = span[pos]
    pos += lo[0]
    mask = (vals >= var[:, None]) & (pos >= lo[:, None]) & (pos < hi[:, None])
    count = np.count_nonzero(mask, axis=1)
    order = np.argsort(count, kind="stable")
    count = count[order]
    tails = np.broadcast_to(vals, mask.shape)[mask[order]]
    sums = np.empty(count.size)
    bounds = [0, *(np.flatnonzero(np.diff(count)) + 1).tolist(), count.size]
    offset = 0
    for first, last in zip(bounds, bounds[1:]):
        length = int(count[first])
        end = offset + (last - first) * length
        sums[first:last] = np.add.reduce(tails[offset:end].reshape(-1, length), axis=1)
        offset = end
    means = np.empty(count.size)
    means[order] = sums / count
    return means


def adaptive_alpha(volatility: float | np.ndarray) -> float | np.ndarray:
    """Tail level that deepens with market volatility: 0.90 + 0.05 * min(1, V).

    ``volatility`` is a float or an array (one level per entry); ``fmin``
    keeps Python's ``min(1.0, V)`` for a NaN proxy too.
    """
    negative = np.asarray(volatility)[np.less(volatility, 0.0)]
    if negative.size:
        raise ConfigError(f"volatility proxy must be >= 0, got {negative[0].item()!r}")
    return 0.90 + 0.05 * np.fmin(1.0, volatility)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")


def _nearest_rank(alpha: float, n: int) -> int:
    """1-based rank ceil(alpha * n), clamped to [1, n]."""
    return min(max(math.ceil(alpha * n - _RANK_EPS), 1), n)


def empirical_var(samples: np.ndarray, alpha: float) -> float:
    """Nearest-rank value-at-risk: the ceil(alpha * N)-th order statistic.

    Args:
        samples: 1-d array of shortfalls (any order).
        alpha: Tail level in (0, 1).

    Raises:
        NumericalError: No samples.
        ConfigError: alpha outside (0, 1).
    """
    _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise NumericalError("cannot take a quantile of an empty sample")
    return float(np.sort(samples)[_nearest_rank(alpha, n) - 1])


def tail_estimate(samples: np.ndarray, alpha: float) -> TailEstimate:
    """VaR plus the mean of all samples at or above it (ties included)."""
    samples = np.asarray(samples, dtype=float)
    var = empirical_var(samples, alpha)
    tail = samples[samples >= var]
    return TailEstimate(
        alpha=alpha,
        var=var,
        cvar=float(tail.mean()),
        tail_count=int(tail.size),
    )


def empirical_cvar(buffer: ShortfallBuffer, alpha: float) -> TailEstimate:
    """Tail estimate over a shortfall buffer, zero while warming up.

    Below ``warmup_min`` samples the estimate is not stable enough to
    act on, so the result is flagged and pinned to zero rather than
    feeding a noisy penalty into rewards.
    """
    _check_alpha(alpha)
    if len(buffer) < buffer.warmup_min:
        return TailEstimate(alpha=alpha, var=0.0, cvar=0.0, tail_count=0, warmup=True)
    return tail_estimate(buffer.as_array(), alpha)


def cvar_rockafellar_oracle(samples: np.ndarray, alpha: float) -> float:
    """CVaR via the convex generator, minimized by enumeration.

    Evaluates ``z + mean((s - z)+) / (1 - alpha)`` at every sample value
    (the minimum of the piecewise-linear objective is always attained at
    one of them) and returns the smallest objective value.  Deliberately
    brute force: this is a test oracle, not a production path.

    Raises:
        NumericalError: No samples.
        ConfigError: alpha outside (0, 1).
    """
    _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise NumericalError("cannot compute CVaR of an empty sample")
    z = samples[:, None]
    excess = np.maximum(samples[None, :] - z, 0.0)
    objectives = z[:, 0] + excess.mean(axis=1) / (1.0 - alpha)
    return float(objectives.min())
