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
from typing import Iterator

import numpy as np

from .errors import EmptyBuffer, InvalidAlpha

#: Guard against float fuzz when alpha * N is an exact integer
#: (e.g. 0.95 * 100 evaluates to 95.00000000000001).
_RANK_EPS = 1e-9


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

    Two views of the window are maintained on every push, so a tail
    estimate costs a bisect lookup and one masked mean instead of a full
    sort: a sorted list (order statistics) and a mirrored ring of length
    ``2 * capacity`` in which every sample is stored twice, ``capacity``
    slots apart, so the window in FIFO order is always one contiguous
    slice (the tail mean then sums the same values in the same order as
    a freshly built array would, bit for bit).
    """

    def __init__(self, capacity: int = 1024, warmup_min: int = 20) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if warmup_min < 1:
            raise ValueError(f"warmup_min must be >= 1, got {warmup_min}")
        self.capacity = capacity
        self.warmup_min = warmup_min
        self._ring = np.zeros(2 * capacity)
        self._start = 0
        self._count = 0
        self._sorted: list[float] = []
        self._total_pushed = 0

    def push(self, shortfall: float) -> None:
        if not math.isfinite(shortfall) or shortfall < 0.0:
            raise ValueError(f"shortfalls must be finite and >= 0, got {shortfall!r}")
        # + 0.0 stores -0.0 as 0.0, so order statistics have one zero
        value = float(shortfall) + 0.0
        if self._count == self.capacity:
            slot = self._start
            del self._sorted[bisect_left(self._sorted, self._ring.item(slot))]
            self._start = (slot + 1) % self.capacity
        else:
            slot = (self._start + self._count) % self.capacity
            self._count += 1
        self._ring[slot] = value
        self._ring[slot + self.capacity] = value
        insort(self._sorted, value)
        self._total_pushed += 1

    def clear(self) -> None:
        self._start = 0
        self._count = 0
        self._sorted.clear()

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[float]:
        return iter(self._window().tolist())

    @property
    def total_pushed(self) -> int:
        return self._total_pushed

    def _window(self) -> np.ndarray:
        """Current samples, oldest first, as a view into the ring."""
        return self._ring[self._start:self._start + self._count]

    def as_array(self) -> np.ndarray:
        return self._window().copy()

    def tail_estimate(self, alpha: float) -> TailEstimate:
        """:func:`tail_estimate` of the current window, without sorting it.

        Raises:
            EmptyBuffer: The buffer holds no samples.
            InvalidAlpha: alpha outside (0, 1).
        """
        _check_alpha(alpha)
        if self._count == 0:
            raise EmptyBuffer("cannot take a quantile of an empty sample")
        var = self._sorted[_nearest_rank(alpha, self._count) - 1]
        window = self._window()
        tail = window[window >= var]
        # the sum and division ndarray.mean performs, without its overhead
        cvar = float(np.add.reduce(tail)) / tail.size
        return TailEstimate(alpha=alpha, var=var, cvar=cvar, tail_count=tail.size)


def adaptive_alpha(volatility: float) -> float:
    """Tail level that deepens with market volatility: 0.90 + 0.05 * min(1, V)."""
    if volatility < 0.0:
        raise InvalidAlpha(f"volatility proxy must be >= 0, got {volatility!r}")
    return 0.90 + 0.05 * min(1.0, volatility)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha!r}")


def _nearest_rank(alpha: float, n: int) -> int:
    """1-based rank ceil(alpha * n), clamped to [1, n]."""
    return min(max(math.ceil(alpha * n - _RANK_EPS), 1), n)


def empirical_var(samples: np.ndarray, alpha: float) -> float:
    """Nearest-rank value-at-risk: the ceil(alpha * N)-th order statistic.

    Args:
        samples: 1-d array of shortfalls (any order).
        alpha: Tail level in (0, 1).

    Raises:
        EmptyBuffer: No samples.
        InvalidAlpha: alpha outside (0, 1).
    """
    _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise EmptyBuffer("cannot take a quantile of an empty sample")
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
    return buffer.tail_estimate(alpha)


def cvar_rockafellar_oracle(samples: np.ndarray, alpha: float) -> float:
    """CVaR via the convex generator, minimized by enumeration.

    Evaluates ``z + mean((s - z)+) / (1 - alpha)`` at every sample value
    (the minimum of the piecewise-linear objective is always attained at
    one of them) and returns the smallest objective value.  Deliberately
    brute force: this is a test oracle, not a production path.

    Raises:
        EmptyBuffer: No samples.
        InvalidAlpha: alpha outside (0, 1).
    """
    _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EmptyBuffer("cannot compute CVaR of an empty sample")
    z = samples[:, None]
    excess = np.maximum(samples[None, :] - z, 0.0)
    objectives = z[:, 0] + excess.mean(axis=1) / (1.0 - alpha)
    return float(objectives.min())
