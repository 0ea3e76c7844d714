"""Local priority rankings and rank-based target sampling.

Every vertex orders all other vertices by non-decreasing distance.  Tied
distances share a competition ("1224") rank: tied entries take the smallest
position of their group and the next distinct entry skips ahead, so the
rank sequence may contain gaps.  Entry weights are 1/rank; normalizing them
gives the selection probabilities.  With no ties this reduces to
P(position i) = 1 / (H_{n-1} * i) with H the harmonic number.

Targets are drawn without replacement by exponential keys (Efraimidis and
Spirakis, 2006): every entry gets the key ``rank * log(1 - u)`` from its own
uniform u, and the k largest keys, in descending order, are the k draws.
This has the same law as drawing one entry at a time with probability
proportional to 1/rank among the entries left.  ``sample_rows`` does this
for a block of sources at once, from their distance rows; ``sample_targets``
does it for one ``LocalRanking``.  Seeded priority-rank graphs changed when
these keys replaced the draw-by-draw ``cumsum`` walk.  The keys use
``1 - u``, which lies in (0, 1], rather than u, so every key is finite.
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


def competition_ranks(sorted_values) -> np.ndarray:
    """1224-style ranks along the last axis of non-decreasing values."""
    sorted_values = np.asarray(sorted_values)
    m = sorted_values.shape[-1]
    if m == 0:
        return np.zeros(sorted_values.shape, dtype=np.int64)
    positions = np.arange(1, m + 1, dtype=np.int64)
    new_group = np.ones(sorted_values.shape, dtype=bool)
    new_group[..., 1:] = sorted_values[..., 1:] != sorted_values[..., :-1]
    return np.maximum.accumulate(np.where(new_group, positions, 0), axis=-1)


def selection_probabilities(ranks) -> np.ndarray:
    """Normalized 1/rank weights for a competition-rank sequence."""
    ranks = np.asarray(ranks, dtype=np.float64)
    weights = 1.0 / ranks
    return weights / weights.sum()


def _first_duplicate(ids: np.ndarray) -> int | None:
    """The smallest id that occurs twice in ``ids``."""
    ordered = np.sort(ids)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    return int(repeats[0]) if repeats.size else None


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
    if (ids < 0).any():
        raise ValueError(f"negative target id {int(ids[ids < 0][0])}")
    if n is not None and (ids >= n).any():
        raise ValueError(f"target id {int(ids[ids >= n][0])} is outside [0, {n})")
    duplicate = _first_duplicate(ids)
    if duplicate is not None:
        raise ValueError(f"duplicate target id {duplicate} in distance map")
    if n is not None:
        expected = n - 1
        if len(ids) != expected:
            missing = sorted(set(range(n)) - {source} - set(int(i) for i in ids))
            raise ValueError(f"distance map misses vertices {missing[:5]}")
    _check_distances(values)
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


def _check_distances(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("distances must be finite")
    if (values < 0).any():
        raise ValueError("distances must be non-negative")


def _top_keys(keys: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Column indices of the ``ks[r]`` largest keys of each row r, in
    descending key order, concatenated row after row."""
    b, m = keys.shape
    top = int(ks.max())
    rows = np.arange(b)[:, None]
    picked = np.argpartition(keys, m - top, axis=1)[:, m - top :]
    picked = picked[rows, np.argsort(-keys[rows, picked], axis=1, kind="stable")]
    return picked[np.arange(top) < ks[:, None]]


def sample_rows(distances, sources, ks, u) -> np.ndarray:
    """Draw ``ks[r]`` distinct targets for each source ``sources[r]``.

    ``distances`` is a (b, n) block of distance rows, one per source, over
    every vertex; the source's own entry is ignored.  ``u`` holds b x n
    uniforms in [0, 1), indexed like ``distances``.  Each target gets the
    competition rank of its distance among the other n - 1 and the key
    ``rank * log(1 - u)``; a source takes its ``ks[r]`` largest keys.  The
    result is every row's targets, in descending key order, concatenated
    row after row.

    Ranks are assigned in sorted order and scattered back by target id, so
    tied distances share a rank whatever order the sort leaves them in.
    """
    distances = np.array(distances, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    b, n = distances.shape
    if np.shape(u) != (b, n):
        raise ValueError(f"need {b} x {n} uniforms, got shape {np.shape(u)}")
    bad = (ks < 1) | (ks > n - 1)
    if bad.any():
        raise ValueError(f"cannot draw {int(ks[bad][0])} targets from {n - 1} entries")
    if b == 0:
        return np.zeros(0, dtype=np.int64)
    rows = np.arange(b)
    distances[rows, sources] = 0.0
    _check_distances(distances)
    # the source's own entry sorts last, so it never shifts a target's rank
    distances[rows, sources] = np.inf
    order = np.argsort(distances, axis=1)
    ranks = np.empty((b, n), dtype=np.int64)
    np.put_along_axis(
        ranks, order, competition_ranks(np.take_along_axis(distances, order, axis=1)), axis=1
    )
    keys = ranks * np.log1p(-u)
    keys[rows, sources] = -np.inf
    return _top_keys(keys, ks)


def sample_targets(ranking: LocalRanking, k: int, rng: RngStream) -> np.ndarray:
    """Draw k distinct targets without replacement.

    Each draw picks an entry with probability proportional to its 1/rank
    weight among the entries not yet drawn.  The draws come from one key per
    entry, ``rank * log(1 - u)`` with u uniform, taken in descending order
    (Efraimidis and Spirakis, 2006), so the first of k draws is the single
    draw of the same stream.
    """
    m = len(ranking)
    if not 1 <= k <= m:
        raise ValueError(f"cannot draw {k} targets from {m} entries")
    keys = ranking.ranks * np.log1p(-rng.generator.random(m))
    return ranking.targets[_top_keys(keys[None, :], np.array([k]))]
