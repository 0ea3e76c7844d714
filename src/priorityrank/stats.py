"""Two-sample Kolmogorov-Smirnov test and seeded RNG streams."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_SERIES_CUTOFF = 1e-12


@dataclass(frozen=True)
class KsResult:
    """Two-sample K-S outcome: max ECDF gap plus asymptotic p-value."""

    statistic: float
    p_value: float


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is the exact supremum of |F_a(x) - F_b(x)| over the pooled
    sample support; both ECDFs advance past ties before the gap is measured.
    The p-value uses the asymptotic Kolmogorov series with the Stephens
    effective-size correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must contain only finite values")
    n, m = a.size, b.size
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / n
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / m
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = n * m / (n + m)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * statistic
    return KsResult(statistic, kolmogorov_q(lam))


def kolmogorov_q(lam: float) -> float:
    """Survival function Q(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2).

    The alternating series is truncated once a term drops below 1e-12, which
    bounds the truncation error by the same amount.
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    j = 1
    while True:
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < _SERIES_CUTOFF:
            break
        sign = -sign
        j += 1
    return min(1.0, max(0.0, 2.0 * total))


def _whole(value, what: str) -> int:
    """``value`` as an int; a float must be whole, where ``int`` would truncate it."""
    if type(value) is not int and not (math.isfinite(value) and value == math.floor(value)):
        raise ValueError(f"{what} must be a whole number, got {value}")
    return int(value)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, derivation path).

    Identical (seed, path) pairs produce identical sequences on every
    platform.  A stream is single-owner; cross-thread use goes through
    ``child`` streams derived with distinct path ids.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        object.__setattr__(self, "path", tuple(_whole(p, "stream path id") for p in self.path))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if any(p < 0 for p in self.path):
            raise ValueError("stream path ids must be non-negative")

    @cached_property
    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, *self.path))

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.path + ids)

    def spawn_seed(self) -> int:
        """Draw a fresh 63-bit seed from this stream."""
        return int(self.generator.integers(0, 2**63))

