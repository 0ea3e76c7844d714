"""Local priority rankings and rank-based target sampling.

Every vertex orders all other vertices by non-decreasing distance.  Tied
distances share a competition ("1224") rank: tied entries take the smallest
position of their group and the next distinct entry skips ahead, so the
rank sequence may contain gaps.  Entry weights are 1/rank; normalizing them
gives the selection probabilities.  With no ties this reduces to
P(position i) = 1 / (H_{n-1} * i) with H the harmonic number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .stats import RngStream


@dataclass(frozen=True)
class LocalRanking:
    """One vertex's view of all others, sorted by distance.

    ``targets``, ``distances``, ``ranks`` and ``probabilities`` are aligned;
    within a tied group targets are ordered by id (presentation only, the
    probabilities inside a group are identical).
    """

    source: int
    targets: np.ndarray
    distances: np.ndarray
    ranks: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def competition_ranks(sorted_values: np.ndarray) -> np.ndarray:
    """1224-style ranks for a non-decreasing value sequence."""
    m = len(sorted_values)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    positions = np.arange(1, m + 1, dtype=np.int64)
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.maximum.accumulate(np.where(new_group, positions, 0))


def selection_probabilities(ranks) -> np.ndarray:
    """Normalized 1/rank weights for a competition-rank sequence."""
    ranks = np.asarray(ranks, dtype=np.float64)
    weights = 1.0 / ranks
    return weights / weights.sum()


def build_local_ranking(source: int, distances, n: int | None = None) -> LocalRanking:
    """Rank all targets of one source vertex by distance.

    ``distances`` is either a mapping {vertex: distance} or a pair of
    aligned arrays (ids, values).  When ``n`` is given the targets must be
    exactly 0..n-1 minus the source.
    """
    if isinstance(distances, Mapping):
        ids = np.fromiter(distances.keys(), dtype=np.int64, count=len(distances))
        values = np.fromiter(distances.values(), dtype=np.float64, count=len(distances))
    else:
        ids, values = distances
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
    if len(ids) == 0:
        raise ValueError("ranking needs at least one target")
    if (ids == source).any():
        raise ValueError(f"source vertex {source} cannot rank itself")
    if len(np.unique(ids)) != len(ids):
        raise ValueError("duplicate target ids in distance map")
    if n is not None:
        expected = n - 1
        if len(ids) != expected:
            missing = sorted(set(range(n)) - {source} - set(int(i) for i in ids))
            raise ValueError(f"distance map misses vertices {missing[:5]}")
    if not np.isfinite(values).all():
        raise ValueError("distances must be finite")
    if (values < 0).any():
        raise ValueError("distances must be non-negative")
    order = np.lexsort((ids, values))
    targets = ids[order]
    sorted_values = values[order]
    ranks = competition_ranks(sorted_values)
    return LocalRanking(
        source=int(source),
        targets=targets,
        distances=sorted_values,
        ranks=ranks,
        probabilities=selection_probabilities(ranks),
    )


def sample_targets(ranking: LocalRanking, k: int, rng: RngStream) -> np.ndarray:
    """Draw k distinct targets without replacement.

    Each draw picks an entry with probability proportional to its current
    1/rank weight, removes it, and renormalizes the remainder.
    """
    m = len(ranking)
    if not 1 <= k <= m:
        raise ValueError(f"cannot draw {k} targets from {m} entries")
    gen = rng.generator
    weights = 1.0 / ranking.ranks
    chosen = np.empty(k, dtype=np.int64)
    for step in range(k):
        cum = np.cumsum(weights)
        u = gen.random() * cum[-1]
        idx = min(int(np.searchsorted(cum, u, side="right")), m - 1)
        # a zeroed weight can only be hit through fp round-off at the
        # boundary; walk to the nearest live entry
        while weights[idx] == 0.0:
            idx = idx - 1 if idx > 0 else idx + 1
        chosen[step] = ranking.targets[idx]
        weights[idx] = 0.0
    return chosen
