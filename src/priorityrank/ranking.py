"""Local priority rankings and rank-based target sampling.

Every vertex orders all other vertices by non-decreasing distance.  Tied
distances share a competition ("1224") rank: tied entries take the smallest
position of their group and the next distinct entry skips ahead, so the
rank sequence may contain gaps.  Entry weights are 1/rank; normalizing them
gives the selection probabilities.  With no ties this reduces to
P(position i) = 1 / (H_{n-1} * i) with H the harmonic number.

Targets are drawn without replacement: each draw picks an entry with
probability proportional to 1/rank among the entries left (successive
sampling).  Two kernels draw from this law, from rows sorted as below.

- ``sample_shared`` serves sources that all rank the targets by one vector.
  One stable argsort gives the tie groups, and two prefix sums over them
  give every source's distribution over groups: the source's own group
  loses one member, and the ranks of the groups after it drop by one.  A draw
  is a binary search over the groups plus a uniform pick inside the group
  that skips the source; repeats are rejected and redrawn, in vectorised
  rounds over all pending sources.  A pass costs O(n log n + n k) rather
  than O(n^2).  Rejection slows as the drawn mass nears 1, so callers send
  a source here only when ``by_rejection`` holds, k <= (n - 1) / 4, a rule
  of n and k alone.  The kernel also serves per-source rows with no tied
  targets: sorted, their targets have ranks 1..n-1, the ranks of the vector
  0..n-1 seen from n - 1, so its draws from that vector are slots of every
  such row.  A row that its distance kind proves strictly increasing along
  a shared order (``DistanceFunction.shared_order``) maps its slots through
  that order and is never evaluated.
- ``sample_sorted`` draws from rows that ``sort_block`` sorted: every entry
  gets the exponential key ``rank * log(1 - u)`` from its own uniform u
  (Efraimidis and Spirakis, 2006), and the k largest keys, in descending
  order, are the k draws.  The keys use ``1 - u``, which lies in (0, 1], so
  every key is finite.

``sort_block`` sorts a block of per-source rows with one value sort of
packed keys.  A key is a distance's bit pattern with its low
``(n - 1).bit_length()`` bits replaced by the target id, built on a bit view
of the rows; the source's key is +inf.  The keys are sorted as float64: a
finite non-negative distance's key is a finite non-negative float, and such
floats order like their bit patterns.  A negative or -0.0 key sorts first,
and an infinite or NaN one beside or after the source's +inf, so the first
and last keys of each sorted row check the whole row.  A flagged row is
unproven and goes, like a row that fails the order check below, to the
stable argsort, which checks it entry by entry for the usual errors.  The
source's key, last in every other row, is dropped.  A row whose sorted
keys, read as integers, rise strictly above the id bits is strictly
increasing in distance: tie-free, and sorted exactly, whatever the float
sort did.  Such a row reads its targets from its keys and never
gathers a distance.  Every other row (true ties, distances that differ only
in the id bits, and any row the caller needs in full) gathers its distances
along the packed order, which puts tied targets by id, and must then be
non-decreasing; a row that is not is argsorted by a stable sort, which
puts tied targets by id too.  So every row held in full lists its targets
as a stable argsort does, tied targets by id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def competition_ranks(sorted_values) -> np.ndarray:
    """1224-style ranks along the last axis of non-decreasing values."""
    sorted_values = np.asarray(sorted_values)
    positions = np.arange(1, sorted_values.shape[-1] + 1, dtype=np.int64)
    new_group = np.ones(sorted_values.shape, dtype=bool)
    new_group[..., 1:] = sorted_values[..., 1:] != sorted_values[..., :-1]
    return np.maximum.accumulate(np.where(new_group, positions, 0), axis=-1)


def selection_probabilities(ranks) -> np.ndarray:
    """Normalized 1/rank weights for a competition-rank sequence."""
    ranks = np.asarray(ranks, dtype=np.float64)
    weights = 1.0 / ranks
    return weights / weights.sum()


def _check_distances(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("distances must be finite")
    if (values < 0).any():
        raise ValueError("distances must be non-negative")


def _check_draws(sources, ks, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``sources`` and ``ks`` as int64 arrays of b sources in [0, n) and b
    draw counts in [1, n - 1]."""
    sources = np.asarray(sources, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    if sources.shape != (b,):
        raise ValueError(f"need one source per row, got {sources.shape} for {b} rows")
    bad = (sources < 0) | (sources >= n)
    if bad.any():
        raise ValueError(f"source id {int(sources[bad][0])} is outside [0, {n})")
    if ks.shape != (b,):
        raise ValueError(f"need one draw count per row, got {ks.shape} for {b} rows")
    bad = (ks < 1) | (ks > n - 1)
    if bad.any():
        raise ValueError(f"cannot draw {int(ks[bad][0])} targets from {n - 1} entries")
    return sources, ks


def _top_keys(keys: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Column indices of the ``ks[r]`` largest keys of each row r, in
    descending key order, concatenated row after row."""
    b, m = keys.shape
    top = int(ks.max())
    if top == 1:
        return np.argmax(keys, axis=1)
    rows = np.arange(b)[:, None]
    picked = np.argpartition(keys, m - top, axis=1)[:, m - top :]
    picked = picked[rows, np.argsort(-keys[rows, picked], axis=1, kind="stable")]
    return picked[np.arange(top) < ks[:, None]]


def _non_decreasing(ordered: np.ndarray) -> np.ndarray:
    """Whether each row of ``ordered`` is non-decreasing."""
    return (ordered[:, 1:] >= ordered[:, :-1]).all(axis=1)


_INF_KEY = np.float64(np.inf).view(np.uint64)


def _id_mask(n: int) -> int:
    """The low bits of a packed key that hold a target id in [0, n)."""
    return (1 << (n - 1).bit_length()) - 1


def _rows_by_sort(distances: np.ndarray, sources: np.ndarray):
    """``(perm, ordered)`` by a stable argsort of each row, without the
    source: tied targets come out by id."""
    rows = np.arange(len(distances))
    distances = distances.copy()
    distances[rows, sources] = 0.0
    _check_distances(distances)
    distances[rows, sources] = np.inf
    perm = np.argsort(distances, axis=1, kind="stable")[:, :-1]
    return perm, np.take_along_axis(distances, perm, axis=1)


def _odd(keys: np.ndarray) -> np.ndarray:
    """Rows of sorted kept keys whose first or last key, read unsigned, is
    at or above +inf's: rows with a negative, -0.0, infinite or NaN entry."""
    return (keys[:, 0] >= _INF_KEY) | (keys[:, -1] >= _INF_KEY)


def _rows_by_keys(distances: np.ndarray, sources: np.ndarray):
    """Every row's packed target keys (see the module docstring), sorted,
    and whether the row is not odd and its distance bits strictly increase,
    which proves it tie-free."""
    b, n = distances.shape
    keys = distances.view(np.uint64) & ~np.uint64(_id_mask(n))
    keys |= np.arange(n, dtype=np.uint64)
    keys[np.arange(b), sources] = _INF_KEY
    keys.view(np.float64).sort(axis=1)
    kept = keys[:, :-1]
    high = keys >> np.uint64((n - 1).bit_length())
    return kept, ~_odd(kept) & (high[:, 1:-1] > high[:, :-2]).all(axis=1)


def _rows_along_keys(distances: np.ndarray, sources: np.ndarray, keys: np.ndarray):
    """``(perm, ordered)`` in the order of sorted packed keys.  Ties among
    the kept distance bits come out by id; an odd row, and a row that this
    leaves decreasing (distances that differ only in the id bits), is
    argsorted, which checks it entry by entry."""
    perm = keys.view(np.int64) & _id_mask(distances.shape[1])
    ordered = np.take_along_axis(distances, perm, axis=1)
    wrong = _odd(keys) | ~_non_decreasing(ordered)
    if wrong.any():
        perm[wrong], ordered[wrong] = _rows_by_sort(distances[wrong], sources[wrong])
    return perm, ordered


@dataclass(frozen=True)
class SortedRows:
    """A (b, n) block of distance rows that ``sort_block`` sorted, each
    without its source.

    ``tie_free[r]`` says whether row r's n - 1 targets hold no tie.  The
    rows listed in ``rows`` are also held in full: ``perm`` lists their
    targets by non-decreasing distance from the row's source, tied targets
    by id, and ``ordered`` holds those distances.  Row r of ``ids``, masked
    by ``mask``, lists row r's targets in sorted order.
    """

    tie_free: np.ndarray
    rows: np.ndarray
    perm: np.ndarray
    ordered: np.ndarray
    ids: np.ndarray
    mask: int

    def targets(self, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The targets at ``slots`` of sorted rows ``rows``."""
        return self.ids[rows, slots] & self.mask


def sort_block(distances, sources, need=None) -> SortedRows:
    """Every row of a (b, n) block sorted by distance from its source, for
    both ways of drawing from it.

    The rows held in full are every row that ``need`` marks (all rows when
    it is None) and every row whose packed keys do not prove it tie-free;
    the other rows are never gathered.  A negative or non-finite distance
    outside the sources' own entries raises ``ValueError``.
    """
    distances = np.asarray(distances, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.int64)
    b, n = distances.shape
    if need is None:
        need = np.ones(b, dtype=bool)
    keys, tie_free = _rows_by_keys(distances, sources)
    rows = np.flatnonzero(need | ~tie_free)
    perm, ordered = _rows_along_keys(distances[rows], sources[rows], keys[rows])
    tie_free[rows] = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    # argsorted rows replace their keys; an id is at most the mask
    ids = keys.view(np.int64)
    ids[rows] = perm
    return SortedRows(tie_free, rows, perm, ordered, ids, _id_mask(n))


def sample_sorted(perm, ordered, ks, u) -> np.ndarray:
    """Draw ``ks[r]`` distinct targets per row of a sorted block's
    ``(perm, ordered)`` by exponential keys.

    ``u`` holds b x n uniforms in [0, 1), indexed by vertex id.  A target
    gets the competition rank of its distance among the other n - 1 and the
    key ``rank * log(1 - u)``; a row takes its ``ks[r]`` largest keys.  The
    result is every row's targets, in descending key order, concatenated
    row after row.
    """
    keys = competition_ranks(ordered) * np.log1p(-np.take_along_axis(u, perm, axis=1))
    return perm[np.repeat(np.arange(len(perm)), ks), _top_keys(keys, ks)]


def by_rejection(n: int, ks) -> np.ndarray:
    """Where ``sample_shared`` draws ``ks`` of n - 1 targets: k <= (n - 1) / 4.

    The rule reads only n and k, so which kernel serves a source never
    depends on timing or on how the sources are blocked."""
    return 4 * np.asarray(ks) <= n - 1


def sample_shared(distances, sources, ks, gen: np.random.Generator) -> np.ndarray:
    """Draw ``ks[r]`` distinct targets for each ``sources[r]`` when every
    source ranks the other vertices by the one vector ``distances``.

    The law is that of ``sample_sorted`` on the rows ``distances``
    broadcast to every source.  The output is each source's targets, in draw
    order, concatenated row after row.  Rows are independent, so a source
    may repeat.  ``gen`` is read in a fixed order: per round, the group
    uniforms of every pending draw, then their in-group uniforms.  Each
    round draws as many candidates per row as the row still needs, and
    keeps those whose target the row has not drawn yet.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 1:
        raise ValueError(f"need one shared distance vector, got shape {distances.shape}")
    n = len(distances)
    b = len(np.atleast_1d(sources))
    sources, ks = _check_draws(sources, ks, b, n)
    _check_distances(distances)
    if b == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(distances, kind="stable")
    ordered = distances[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, n])
    last = len(starts) - 1
    # a group's competition rank is its 1-based start p_g; for a source,
    # the ranks of the groups after its own drop by one, so a group of size
    # s_g weighs s_g / p_g before the source's group and s_g / (p_g - 1)
    # after it
    before = np.r_[0.0, np.cumsum(sizes / (starts + 1))]
    after = np.r_[0.0, np.cumsum(sizes / np.maximum(starts, 1))]
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    group = np.repeat(np.arange(len(starts)), sizes)[place[sources]]
    low = before[group]
    high = low + (sizes[group] - 1) / (starts[group] + 1)
    total = high + (after[-1] - after[group + 1])

    need = ks.copy()
    pending = np.arange(b)
    taken = np.zeros(0, dtype=np.int64)  # sorted codes row * n + target
    drawn = []
    while len(pending):
        rows = np.repeat(pending, need[pending])
        u = gen.random((2, len(rows)))
        h = group[rows]
        x = u[0] * total[rows]
        g = np.where(x < low[rows], np.searchsorted(before, x, "right") - 1, h)
        tail = x >= high[rows]
        shifted = x[tail] - high[rows[tail]] + after[h[tail] + 1]
        g[tail] = np.clip(np.searchsorted(after, shifted, "right") - 1, h[tail] + 1, last)
        own = g == h
        room = sizes[g] - own
        pos = starts[g] + np.minimum((u[1] * room).astype(np.int64), room - 1)
        pos += own & (pos >= place[sources[rows]])
        codes = rows * n + order[pos]
        # rounding can put x at the total, past the last group that has room
        codes[x >= total[rows]] = -1
        fresh = np.zeros(len(codes), dtype=bool)
        fresh[np.unique(codes, return_index=True)[1]] = True
        fresh &= codes >= 0
        if len(taken):
            at = np.minimum(np.searchsorted(taken, codes), len(taken) - 1)
            fresh &= taken[at] != codes
        drawn.append(codes[fresh])
        taken = np.sort(np.concatenate([taken, codes[fresh]]), kind="stable")
        need -= np.bincount(rows[fresh], minlength=b)
        pending = pending[need[pending] > 0]
    codes = np.concatenate(drawn)
    return codes[np.argsort(codes // n, kind="stable")] % n
