"""Independent brute-force oracles used to validate the fast implementations."""

from __future__ import annotations

import csv
import io
import math
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.stats import chisquare

from priorityrank.graph import ATTRIBUTE_KINDS, AttributeColumn, AttributeTable, Graph, GraphFormatError
from priorityrank.ranking import (
    _check_distances,
    _check_draws,
    _id_mask,
    competition_ranks,
    sample_sorted,
    selection_probabilities,
    sort_block,
)


def arcs(g: Graph) -> frozenset[tuple[int, int]]:
    """The arcs of ``g`` as a set of ``(src, dst)`` tuples."""
    return frozenset(map(tuple, g.arc_array.tolist()))


def adjacency(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-neighbour lists of every vertex, in id order, built from
    the graph's arc set alone."""
    out_adj: list[list[int]] = [[] for _ in range(g.n)]
    in_adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in sorted(arcs(g)):
        out_adj[i].append(j)
        in_adj[j].append(i)
    return out_adj, in_adj


def bfs_distances(adj, source: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def enumerate_shortest_paths(adj, s: int, t: int) -> list[list[int]]:
    """All shortest s->t paths by DFS restricted to the shortest-path DAG;
    ``adj`` is ``adjacency(g)``."""
    out_adj, in_adj = adj
    n = len(out_adj)
    dist_s = bfs_distances(out_adj, s, n)
    if s == t or dist_s[t] < 0:
        return []
    dist_to_t = bfs_distances(in_adj, t, n)
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(list(path))
            return
        for w in out_adj[u]:
            if dist_s[w] == dist_s[u] + 1 and dist_to_t[w] == dist_to_t[u] - 1:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return paths


def betweenness_count_oracle(g: Graph) -> np.ndarray:
    """Raw pass-through counts by full path enumeration."""
    adj = adjacency(g)
    counts = np.zeros(g.n)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            for path in enumerate_shortest_paths(adj, s, t):
                for v in path[1:-1]:
                    counts[v] += 1
    return counts


def betweenness_fractional_oracle(g: Graph) -> list[Fraction]:
    """Pair-dependency sums in exact rational arithmetic."""
    adj = adjacency(g)
    totals = [Fraction(0) for _ in range(g.n)]
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            paths = enumerate_shortest_paths(adj, s, t)
            if not paths:
                continue
            sigma = len(paths)
            through = {}
            for path in paths:
                for v in path[1:-1]:
                    through[v] = through.get(v, 0) + 1
            for v, c in through.items():
                totals[v] += Fraction(c, sigma)
    return totals


def betweenness_count_brandes(g: Graph) -> list[int]:
    """Raw pass-through counts in Python ints, by Brandes' accumulation over
    each source's shortest-path DAG; exact at any size."""
    n = g.n
    out_adj, in_adj = adjacency(g)
    totals = [0] * n
    for s in range(n):
        dist = bfs_distances(out_adj, s, n)
        order = sorted((v for v in range(n) if dist[v] >= 0), key=lambda v: dist[v])
        paths = [0] * n
        paths[s] = 1
        for v in order:
            for w in out_adj[v]:
                if dist[w] == dist[v] + 1:
                    paths[w] += paths[v]
        below = [0] * n  # shortest-path continuations from v onwards
        for w in reversed(order):
            for v in in_adj[w]:
                if dist[v] >= 0 and dist[v] == dist[w] - 1:
                    below[v] += below[w] + 1
        for v in order:
            if v != s:
                totals[v] += paths[v] * below[v]
    return totals


def ks_statistic_oracle(a, b) -> float:
    """Max ECDF gap by direct evaluation at every pooled value."""
    a = list(a)
    b = list(b)
    best = 0.0
    for x in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def random_digraph(gen: np.random.Generator, n: int, p: float) -> Graph:
    mat = gen.random((n, n)) < p
    np.fill_diagonal(mat, False)
    src, dst = np.nonzero(mat)
    return Graph(n, zip(src.tolist(), dst.tolist()))


def harmonic(n: int) -> float:
    """The partial sum H_n = 1 + 1/2 + ... + 1/n, correctly rounded: the
    normalizer of the 1/rank law over n untied positions."""
    return math.fsum(1.0 / k for k in range(1, n + 1))


class LocalRanking(NamedTuple):
    """One vertex's view of all others, sorted by distance: aligned arrays,
    tied targets by id."""

    targets: np.ndarray
    distances: np.ndarray
    ranks: np.ndarray
    probabilities: np.ndarray


def lexsort_ranking(row, source: int) -> LocalRanking:
    """Every target of ``source`` ranked by its entry of the full distance
    ``row``, by one ``np.lexsort`` of (distance, id), independent of the
    packed keys of ``sort_block``; the source's own entry is ignored."""
    row = np.asarray(row, dtype=np.float64)
    ids = np.delete(np.arange(len(row)), source)
    values = np.delete(row, source)
    _check_distances(values)
    order = np.lexsort((ids, values))
    ranks = competition_ranks(values[order])
    return LocalRanking(ids[order], values[order], ranks, selection_probabilities(ranks))


def sequential_draw_law(ranks, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact probability of every ordered k-draw of distinct positions when
    each draw picks a remaining position with probability proportional to
    1/rank, by enumerating all sequences (once per distinct ranks and k)."""
    return dict(_sequential_draw_law(tuple(int(r) for r in ranks), k))


@lru_cache(maxsize=None)
def _sequential_draw_law(ranks: tuple[int, ...], k: int) -> dict[tuple[int, ...], Fraction]:
    weights = [Fraction(1, r) for r in ranks]
    # every prefix, with its probability and the weight it leaves
    level = {(): (Fraction(1), sum(weights))}
    for _ in range(k):
        level = {
            seq + (pos,): (p * w / left, left - w)
            for seq, (p, left) in level.items()
            for pos, w in enumerate(weights)
            if pos not in seq
        }
    return {seq: p for seq, (p, _) in level.items()}


def shared_vector_law(distances, source: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the ordered k-draw of ``source`` when it ranks every
    other vertex j by ``distances[j]``, keyed by target ids: ranks from
    ``lexsort_ranking``, probabilities from ``sequential_draw_law``."""
    ranking = lexsort_ranking(distances, source)
    return {
        tuple(int(ranking.targets[pos]) for pos in seq): p
        for seq, p in sequential_draw_law(ranking.ranks, k).items()
    }


def chisquare_pvalue(law, draws) -> float:
    """Chi-square p-value of the observed ``draws`` (hashable outcomes)
    against ``law`` ({outcome: probability}); cells expected below 5 are
    pooled into one."""
    counts = dict.fromkeys(law, 0)
    for outcome in draws:
        counts[outcome] += 1
    observed = np.array([counts[o] for o in law], dtype=np.float64)
    expected = len(draws) * np.array([float(p) for p in law.values()])
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return float(chisquare(observed, expected).pvalue)


def priority_rank_oracle(spec, ctx, ks, u) -> set[tuple[int, int]]:
    """Arcs of one priority-rank pass, one vertex at a time: stable
    ``lexsort`` ranks from ``lexsort_ranking``, the key
    ``rank * log(1 - u[i, t])`` for every target t, and the ``ks[i]``
    largest keys."""
    arcs = set()
    for i in range(ctx.n):
        if ks[i] == 0:
            continue
        ranking = lexsort_ranking(spec.rows(ctx, np.array([i]))[0], i)
        keys = ranking.ranks * np.log1p(-u[i, ranking.targets])
        best = np.argsort(-keys, kind="stable")[: ks[i]]
        arcs.update((i, int(t)) for t in ranking.targets[best])
    return arcs


def rank_space_oracle(spec, ctx, ks, positions, gen) -> set[tuple[int, int]]:
    """Arcs of one priority-rank pass of a per-source kind, one vertex at a
    time.  A source with 4 k <= n - 1 takes its next k ``positions``; if its
    ``lexsort_ranking`` has ranks 1..n-1 (no tie), its targets are that
    ranking's targets at those positions.  Every other source with k > 0
    reads the next row of n uniforms of ``gen`` and draws by
    ``priority_rank_oracle``."""
    n = ctx.n
    arcs = set()
    keyed = np.zeros(n, dtype=np.int64)
    u = np.zeros((n, n))
    taken = 0
    for i in range(n):
        k = int(ks[i])
        if k == 0:
            continue
        if 4 * k <= n - 1:
            drawn = positions[taken : taken + k]
            taken += k
            ranking = lexsort_ranking(spec.rows(ctx, np.array([i]))[0], i)
            if ranking.ranks.tolist() == list(range(1, n)):
                arcs.update((i, int(t)) for t in ranking.targets[drawn])
                continue
        keyed[i] = k
        u[i] = gen.random(n)
    assert taken == len(positions)
    return arcs | priority_rank_oracle(spec, ctx, keyed, u)


def evaluate(spec, ctx, i: int, j: int) -> float:
    """The distance from i to j: ``spec.rows(ctx, np.array([i]))[0][j]``."""
    if i == j:
        raise ValueError("distance is only queried for i != j")
    if not (0 <= i < ctx.n and 0 <= j < ctx.n):
        raise ValueError(f"vertex pair ({i}, {j}) outside context n={ctx.n}")
    return float(spec.rows(ctx, np.array([i]))[0][j])


def sort_rows(distances, sources):
    """Every row of a (b, n) block sorted by distance from its source, as
    ``(perm, ordered)`` (see ``ranking.SortedRows``), with every row held
    in full.  The errors are those of ``sort_block``."""
    ranked = sort_block(distances, sources)
    return ranked.perm, ranked.ordered


def sample_rows(distances, sources, ks, u) -> np.ndarray:
    """Draw ``ks[r]`` distinct targets for each source ``sources[r]``.

    ``distances`` is a (b, n) block of distance rows, one per source, over
    every vertex; the source's own entry is ignored.  ``u`` holds b x n
    uniforms in [0, 1), indexed like ``distances``.  The rows are sorted by
    ``sort_rows`` and drawn by ``sample_sorted``.  Tied distances share a
    rank, so the draws do not depend on how a sort leaves tied entries.
    """
    distances = np.asarray(distances, dtype=np.float64)
    b, n = distances.shape
    sources, ks = _check_draws(sources, ks, b, n)
    if np.shape(u) != (b, n):
        raise ValueError(f"need {b} x {n} uniforms, got shape {np.shape(u)}")
    if b == 0:
        return np.zeros(0, dtype=np.int64)
    return sample_sorted(*sort_rows(distances, sources), ks, u)


def packed_keys(distances, sources):
    """The packed keys of ``ranking._rows_by_keys`` on rows with no odd
    entry, built the first way: the bits of a ``+ 0.0`` copy checked in
    full, all ones for the source, one uint64 sort, and tie-free where no
    two neighbouring keys agree above the id bits.  The errors are those of
    ``sort_block``."""
    b, n = distances.shape
    rows = np.arange(b)
    keys = distances + 0.0
    keys[rows, sources] = 0.0
    _check_distances(keys)
    keys = keys.view(np.uint64)
    mask = np.uint64(_id_mask(n))
    keys &= ~mask
    keys |= np.arange(n, dtype=np.uint64)
    keys[rows, sources] = np.iinfo(np.uint64).max
    keys.sort(axis=1)
    keys = keys[:, :-1]
    return keys, ~((keys[:, 1:] ^ keys[:, :-1]) <= mask).any(axis=1)


def aggregate_rows(spec, ctx, sources) -> np.ndarray:
    """``AggregateDistance.rows`` as written: zeros plus every weighted
    term."""
    total = np.zeros((len(sources), ctx.n))
    for name, w in spec.weights:
        if ctx.attrs.column(name).is_numeric:
            vals = ctx.attrs.numeric_array(name)
            term = np.abs(vals - vals[sources, None])
        else:
            codes = ctx.attrs.column(name).array
            term = (codes != codes[sources, None]).astype(np.float64)
        total = total + term * w
    return total


def edge_list_text(g: Graph) -> str:
    """``save_edge_list`` written with one ``%`` format of every arc."""
    arcs = g.arc_array
    header = "" if len(arcs) and g.n == arcs.max() + 1 else f"n={g.n}\n"
    return header + ("%d %d\n" * len(arcs)) % tuple(arcs.ravel().tolist())


# The plain edge-list grammar as the regex that first checked it.  Searching
# for the first line outside the grammar keeps no state per line, where a
# full match of the repeated grammar would keep a backtracking record for
# every line.
_HEADER = re.compile(r"n=([0-9]{1,18})\r?(?:\n|\Z)")
_NON_ARC_LINE = re.compile(r"^(?![0-9]{1,18}[ \t]+[0-9]{1,18}\r?$)", re.MULTILINE)


def plain_edge_list_by_regex(text: str) -> tuple[int, np.ndarray] | None:
    """``graph._plain_edge_list`` with its arc lines checked by the
    ``_NON_ARC_LINE`` search."""
    header = _HEADER.match(text)
    start = header.end() if header else 0
    if _NON_ARC_LINE.search(text, start, len(text) - text.endswith("\n")):
        return None
    pairs = np.fromstring(text[start:], dtype=np.int64, sep=" ").reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        return None
    top = int(pairs.max()) if pairs.size else -1
    if header is None:
        return top + 1, pairs
    declared_n = int(header.group(1))
    return (declared_n, pairs) if top < declared_n else None


def load_attributes_by_rows(text: str, expected_n: int | None = None) -> AttributeTable:
    """``load_attributes`` as a numbered ``csv.reader`` loop that converts
    and checks one cell at a time, naming the first bad row by the text
    line that it starts on."""
    text = text.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text))
    rows, lines = [], []
    start = 1  # the text line that the next row starts on
    try:
        for row in reader:
            if "".join(row).strip():
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise GraphFormatError(f"row {start}: {exc}") from None
    if not rows:
        raise GraphFormatError("attribute table has no header row")
    specs: list[tuple[str, str]] = []
    for cell in rows[0]:
        cell = cell.strip()
        if ":" not in cell:
            raise GraphFormatError(f"header cell {cell!r} is not 'name:kind'")
        name, kind = cell.rsplit(":", 1)
        name, kind = name.strip(), kind.strip()
        if not name:
            raise GraphFormatError(f"header cell {cell!r} has an empty name")
        if kind not in ATTRIBUTE_KINDS:
            raise GraphFormatError(f"unknown attribute kind {kind!r} for column {name!r}")
        specs.append((name, kind))
    body = rows[1:]
    if expected_n is not None and len(body) != expected_n:
        raise GraphFormatError(f"attribute table has {len(body)} rows, expected {expected_n}")
    columns: list[list] = [[] for _ in specs]
    for rowno, row in zip(lines[1:], body):
        if len(row) != len(specs):
            raise GraphFormatError(f"row {rowno}: {len(row)} cells for {len(specs)} columns")
        for (name, kind), cell, values in zip(specs, row, columns):
            cell = cell.strip()
            if kind == "categorical":
                values.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise GraphFormatError(f"row {rowno}, column {name!r}: non-numeric value {cell!r}") from None
            if not math.isfinite(value):
                raise GraphFormatError(f"row {rowno}, column {name!r}: non-finite value {cell!r}")
            values.append(value)
    return AttributeTable(
        [AttributeColumn(name, kind, tuple(values)) for (name, kind), values in zip(specs, columns)]
    )


def one_hot_by_rows(encoder, table: AttributeTable) -> np.ndarray:
    """``FeatureEncoder.encode`` as a loop over rows, one label lookup per
    row; a row whose label was not seen at fit time stays all zero."""
    blocks = []
    for name, kind, labels in encoder.columns:
        col = table.column(name)
        if kind == "categorical":
            block = np.zeros((table.n, len(labels)))
            index = {lab: k for k, lab in enumerate(labels)}
            for row, value in enumerate(col.values):
                k = index.get(value)
                if k is not None:
                    block[row, k] = 1.0
            blocks.append(block)
        else:
            blocks.append(np.array(col.values, dtype=np.float64).reshape(-1, 1))
    return np.hstack(blocks) if blocks else np.zeros((table.n, 0))
