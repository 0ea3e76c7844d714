"""Two-sample Kolmogorov-Smirnov test, harmonic numbers, and seeded RNG streams."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Euler-Mascheroni constant, 5-decimal truncation used by the closed-form
# harmonic approximation.
EULER_MASCHERONI = 0.57722

_SERIES_CUTOFF = 1e-12


@dataclass(frozen=True)
class KsResult:
    """Two-sample K-S outcome: max ECDF gap plus asymptotic p-value."""

    statistic: float
    p_value: float
    n: int
    m: int


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
    if statistic == 0.0:
        return KsResult(0.0, 1.0, n, m)
    n_eff = n * m / (n + m)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * statistic
    return KsResult(statistic, kolmogorov_q(lam), n, m)


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


def harmonic(n: int) -> float:
    """Exact partial sum H_n = 1 + 1/2 + ... + 1/n."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, int(n) + 1))


def harmonic_euler(n: int) -> float:
    """Closed-form approximation H_n ~ ln(n) + 1/(2n) + gamma."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    n = int(n)
    return math.log(n) + 1.0 / (2.0 * n) + EULER_MASCHERONI


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if any(p < 0 for p in self.path):
            raise ValueError("stream path ids must be non-negative")

    @cached_property
    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, *self.path))

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in ids))

    def spawn_seed(self) -> int:
        """Draw a fresh 63-bit seed from this stream."""
        return int(self.generator.integers(0, 2**63))


def draw(dist: tuple, rng: RngStream, size: int | None = None):
    """Draw from a named distribution: ('normal', mu, sigma),
    ('uniform', a, b), ('lognormal', mu, sigma), or ('exponential', rate).

    Returns a float when size is None, else an ndarray of that length.
    """
    kind, *params = dist
    gen = rng.generator
    if kind == "normal":
        mu, sigma = params
        if not sigma > 0:
            raise ValueError(f"normal needs sigma > 0, got {sigma}")
        out = gen.normal(mu, sigma, size=size)
    elif kind == "uniform":
        a, b = params
        if not a < b:
            raise ValueError(f"uniform needs a < b, got ({a}, {b})")
        out = gen.uniform(a, b, size=size)
    elif kind == "lognormal":
        mu, sigma = params
        if not sigma > 0:
            raise ValueError(f"lognormal needs sigma > 0, got {sigma}")
        out = gen.lognormal(mu, sigma, size=size)
    elif kind == "exponential":
        (rate,) = params
        if not rate > 0:
            raise ValueError(f"exponential needs rate > 0, got {rate}")
        out = gen.exponential(1.0 / rate, size=size)
    else:
        raise ValueError(f"unknown distribution {kind!r}")
    return float(out) if size is None else out
