"""Centrality measures and scalar descriptors for directed graphs.

All shortest-path quantities are unweighted (hop counts) and directed, and
every one of them comes from a single sweep per graph.  The sweep runs a
chunk of b sources at once, level by level, over vertex-major cells
``v * b + row`` (vertex v as seen from the row's source) and a CSR view of
the arcs.  Each level expands the arcs of every vertex that is in some
row's frontier once, and tests all b rows of an arc with one comparison of
two byte rows: the tail's cell is visited and the head's is not.  This is
the shared frontier of multi-source BFS (Then et al., VLDB 2014) with a
byte per source instead of a bit.  It tests more (arc, row) cells than one
BFS per source visits (source, arc) pairs, about 4 times as many on ER,
BA and DGM graphs, but a test is a byte in a few byte passes, and only the
7-9% of cells that are arcs of the shortest-path DAGs go on to int64
passes.  Those arcs are kept as (parent, child) cell arrays.  Path counts
are scattered along them with ``np.add.at``, and Brandes' dependency
accumulation walks them backwards with the same scatter.  Each chunk is
reduced in the same pass to betweenness, closeness, farness, diameter and
average path length.  Betweenness ships in two modes: ``count`` sums raw
numbers of shortest paths passing through a vertex, ``fractional`` sums
the usual pair dependencies sigma_st(v)/sigma_st.  Closeness is read as
the profile's ``closeness`` (reachable-count-1 over total distance) and
``closeness_farness`` (mean distance over the full vertex count).

A chunk holds as many sources as fit a byte budget, at the measured peak of
about 32 bytes per source and vertex plus 8 per source and arc.  The vertex
term holds the path counts, the accumulator, the masks and the DAG arc into
each reached vertex, which is what a deep graph such as a long directed
cycle stores.  The arc term holds a level's byte rows and the further DAG
arcs of a shallow graph.

Count-mode betweenness is exact.  Path counts are integers, and float64
sums of integers are exact below 2**53, so the result does not depend on
how the sources are chunked.  A chunk whose betweenness reaches 2**53 is
redone with Python integers, and the running betweenness switches to them
too.  Fractional betweenness is a float sum in scatter order.

``NetworkProfile(g)`` is the one route to every measure in its default
mode: a lazy view whose fields are each computed on first read, at most
once, so a caller pays only for what it reads (``recreate`` scores a
generated graph without its pagerank, transitivity or assortativity).  A
module function stays beside it only for a mode or knob that the profile
lacks: fractional betweenness, pagerank's damping, tolerance and iteration
limit.  In- and out-degree are the graph's own ``in_degrees`` and
``out_degrees``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, symmetrize

# A chunk runs _CHUNK_BYTES // (_VERTEX_BYTES * n + _ARC_BYTES * m) sources,
# at least one: the peak of a chunk in bytes per source, per vertex and per
# arc.  tracemalloc read 0.80-0.82 of the budget on ER n=800 (mean out-degree
# 8, seeds 1-5), 0.78 on BA n=800, 0.68 on DGM(7), 0.86-0.89 on directed
# 600- and 1000-cycles and the 1000-path, and 1.02 on ER n=800 of mean
# out-degree 24.
_CHUNK_BYTES = 2**22
_VERTEX_BYTES = 32
_ARC_BYTES = 8
# transitivity lists about _CHUNK_BYTES // _PAIR_BYTES oriented-neighbour
# pairs at a time: tracemalloc read 58 bytes a pair on the complete graph on
# 200 vertices (1.3M pairs), on top of about 30-55 bytes per arc for the
# arrays that every block shares
_PAIR_BYTES = 64
_EXACT_LIMIT = 2.0**53

CENTRALITY_KINDS = ("degree", "betweenness", "closeness", "pagerank")


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its tolerance."""


def _chunks(g: Graph) -> list[np.ndarray]:
    per_source = _VERTEX_BYTES * g.n + _ARC_BYTES * g.arc_count
    size = max(1, _CHUNK_BYTES // max(per_source, 1))
    return [np.arange(lo, min(lo + size, g.n)) for lo in range(0, g.n, size)]


def _frontier_sweep(csr, sources: np.ndarray, dtype):
    """Level-synchronous BFS from every vertex of ``sources`` at once.

    Cell ``v * b + row`` is vertex v seen from ``sources[row]``, for the
    chunk's b sources.  Each level expands the arcs of every vertex that is
    in some row's frontier once, tests all b rows of an arc at once (its
    tail's cell visited, its head's not), and keeps only the arcs of the
    shortest-path DAGs.

    Returns the flat shortest-path counts ``sigma`` (of ``dtype``), each
    level's DAG arcs as (parent, child) cell arrays, and per row the number
    of vertices reached and their total distance.
    """
    starts, degrees, heads = csr
    n, b = len(starts), len(sources)
    own = sources * b + np.arange(b)  # each source's cell of itself
    unvisited = np.ones(n * b, dtype=bool)
    unvisited[own] = False
    unvisited_rows = unvisited.reshape(n, b)
    depth = np.zeros(n * b, dtype=np.min_scalar_type(n))
    sigma = np.zeros(n * b, dtype=dtype)
    sigma[own] = 1
    reached = np.zeros(n, dtype=bool)  # the vertices of the next frontier
    levels = []
    frontier = sources
    while True:
        deg = degrees[frontier]
        tails = np.repeat(frontier, deg)
        pair = np.arange(tails.size)
        # each expanded arc: its tail's first arc plus its rank there
        ends = heads[pair + np.repeat(starts[frontier] - np.cumsum(deg) + deg, deg)]
        # a visited tail cell is in the frontier unless all its heads are
        # visited too, so the frontier mask is the visited one
        hit = unvisited_rows.take(ends, axis=0)
        np.greater(hit, unvisited_rows.take(tails, axis=0), out=hit)
        cell = hit.ravel().nonzero()[0]  # pair * b + row
        del hit
        if not cell.size:
            break
        # hit (pair, row) is the DAG arc from cell tail * b + row to end * b + row
        hit_pair = cell // b
        parent = ((tails - pair) * b)[hit_pair]
        parent += cell
        child = cell  # in place, as the level's peak comes next
        child += ((ends - pair) * b)[hit_pair]
        reached[ends[hit_pair]] = True
        del cell, hit_pair
        np.add.at(sigma, child, sigma[parent])
        levels.append((parent, child))
        unvisited[child] = False
        depth[child] = len(levels)
        frontier = reached.nonzero()[0]
        reached[frontier] = False
    depth = depth.reshape(n, b)
    return sigma, levels, np.count_nonzero(depth, axis=0), depth.sum(axis=0, dtype=np.int64)


def _exact(a: np.ndarray) -> bool:
    """Whether every value is below 2**53, where float64 still holds
    integers exactly."""
    return not a.size or a.max() < _EXACT_LIMIT


def _chunk_paths(csr, sources: np.ndarray, dtype, mode: str):
    """One chunk's sweep, then Brandes' accumulation backwards over its
    stored DAG arcs, deepest level first.

    ``acc[v]`` sums ``acc[w] + step[w]`` over v's DAG children w, and
    ``sigma[v] * acc[v]`` is what the source's paths through v contribute:
    with a step of 1 it counts the shortest-path continuations below v
    (count mode), with ``1 / sigma[w]`` it is Brandes' dependency.

    Returns the betweenness summed over the chunk's sources, per source the
    number of vertices reached and their total distance, and the depth.
    """
    sigma, levels, reach, total = _frontier_sweep(csr, sources, dtype)
    depth = len(levels)
    acc = np.zeros_like(sigma)
    while levels:  # each level is freed once accumulated
        parent, child = levels.pop()
        step = 1 if mode == "count" else 1.0 / sigma[child]
        np.add.at(acc, parent, acc[child] + step)
    acc *= sigma
    through = acc.reshape(-1, len(sources))
    through[sources, np.arange(len(sources))] = 0  # a source is no pair's interior
    return through.sum(axis=1), reach, total, depth


def _add_counts(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``total + part`` for count betweenness; Python ints once either
    operand holds them or a sum reaches 2**53."""
    summed = total + part
    if summed.dtype == object or not _exact(summed):
        summed = np.array([int(a) + int(b) for a, b in zip(total, part)], dtype=object)
    return summed


@dataclass(frozen=True)
class PathSweep:
    """Every shortest-path quantity of one graph, from one sweep."""

    betweenness: np.ndarray
    closeness: np.ndarray
    farness: np.ndarray
    diameter: int
    avg_path_length: float


def path_sweep(g: Graph, mode: str) -> PathSweep:
    """One chunked frontier sweep, reduced to every shortest-path quantity.

    ``mode`` selects the betweenness accumulation (``count`` or
    ``fractional``).  A caller that needs several of these quantities runs
    the sweep once.
    """
    if mode not in ("count", "fractional"):
        raise ValueError(f"unknown betweenness mode {mode!r}")
    n = g.n
    csr = g.csr
    centrality = np.zeros(n)
    closeness = np.zeros(n)
    farness = np.zeros(n)
    diam = 0
    total = 0
    count = 0
    for sources in _chunks(g):
        part, reach, row_total, depth = _chunk_paths(csr, sources, np.float64, mode)
        # the path and continuation counts of a cell inside a path are at
        # most its through-count, and no other cell adds to the sums, so
        # sums below 2**53 mean that the chunk counted exactly
        if mode == "count" and not _exact(part):
            part = _chunk_paths(csr, sources, object, mode)[0]
        centrality = _add_counts(centrality, part) if mode == "count" else centrality + part
        closeness[sources] = np.divide(
            reach, row_total, out=np.zeros(len(sources)), where=row_total > 0
        )
        farness[sources] = row_total / n
        diam = max(diam, depth)
        total += int(row_total.sum())
        count += int(reach.sum())
    return PathSweep(
        betweenness=centrality.astype(np.float64),
        closeness=closeness,
        farness=farness,
        diameter=diam,
        avg_path_length=total / count if count else 0.0,
    )


def betweenness_centrality(g: Graph, mode: str = "count") -> np.ndarray:
    """Betweenness via Brandes accumulation over BFS DAGs.

    ``count``: sum over ordered pairs (s, t), s,t != v, of the number of
    shortest s->t paths passing through v.  ``fractional``: the standard
    pair-dependency sum sigma_st(v) / sigma_st.
    """
    return path_sweep(g, mode).betweenness


def pagerank_centrality(
    g: Graph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Power iteration for the recursive-importance fixed point.

    x_i = damping * (sum over in-neighbours j of x_j / outdeg_j
    + dangling mass / n) + (1 - damping) / n.  Iterates until the L1
    change drops below tol.
    """
    # written so that NaN fails too
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = g.n
    if n == 0:
        return np.zeros(0)
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    src = g.arc_array[:, 0]
    dst = g.arc_array[:, 1]
    outdeg = g.out_degrees.astype(np.float64)
    dangling = outdeg == 0
    safe_out = np.where(dangling, 1.0, outdeg)
    for _ in range(max_iter):
        contrib = x[src] / safe_out[src]
        incoming = np.bincount(dst, weights=contrib, minlength=n)
        dangling_mass = float(x[dangling].sum())
        x_new = damping * (incoming + dangling_mass / n) + base
        residual = float(np.abs(x_new - x).sum())
        x = x_new
        if residual < tol:
            return x
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (residual {residual:.3e})"
    )


def _count_members(codes: np.ndarray, queries: np.ndarray) -> int:
    """How many ``queries`` occur in the sorted, non-empty ``codes``."""
    pos = np.minimum(np.searchsorted(codes, queries), len(codes) - 1)
    return int(np.count_nonzero(codes[pos] == queries))


@dataclass(frozen=True)
class NetworkProfile(Mapping):
    """Scalar descriptors of one graph plus the centrality vectors used for
    comparisons, with the default measure modes (total degree, count
    betweenness, reciprocal closeness beside farness, pagerank with damping
    0.85).

    The profile is a lazy view: each field is computed on first read, at
    most once, and the shortest-path fields share one count-mode sweep.
    It is a read-only mapping from each kind in ``CENTRALITY_KINDS`` to that
    vector, so it serves as the ``centralities`` of a distance context.
    Equality and hashing are the dataclass's, by graph.
    """

    graph: Graph

    n = property(lambda self: self.graph.n)
    arc_count = property(lambda self: self.graph.arc_count)
    _sweep = cached_property(lambda self: path_sweep(self.graph, "count"))
    diameter = property(lambda self: self._sweep.diameter)
    avg_path_length = property(lambda self: self._sweep.avg_path_length)
    betweenness = property(lambda self: self._sweep.betweenness)
    closeness = property(lambda self: self._sweep.closeness)
    closeness_farness = property(lambda self: self._sweep.farness)
    degree = cached_property(lambda self: self.graph.total_degrees.astype(np.float64))
    pagerank = cached_property(lambda self: pagerank_centrality(self.graph))

    @cached_property
    def density(self) -> float:
        g = self.graph
        if g.n < 2:
            return 0.0
        return g.arc_count / (g.n * (g.n - 1))

    @cached_property
    def reciprocity(self) -> float:
        """Fraction of arcs whose reverse arc is also present."""
        g = self.graph
        if not g.arc_count:
            return 0.0
        src, dst = g.arc_array.T
        return _count_members(g.codes, dst * g.n + src) / g.arc_count

    @cached_property
    def assortativity(self) -> float:
        """Pearson correlation of (total degree of source, total degree of
        target) over arcs.  Returns NaN when either side has zero variance."""
        g = self.graph
        if g.n < 2 or not g.arc_count:
            return math.nan
        deg = g.total_degrees.astype(np.float64)
        x = deg[g.arc_array[:, 0]]
        y = deg[g.arc_array[:, 1]]
        sx = float(np.std(x))
        sy = float(np.std(y))
        if sx == 0.0 or sy == 0.0:
            return math.nan
        return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))

    @cached_property
    def centralization(self) -> float:
        """Freeman degree centralization: total gap to the maximum total
        degree, normalized by the largest gap attainable in a simple directed
        graph (a bidirectional star), 2(n-1)(n-2)."""
        g = self.graph
        n = g.n
        if n < 3:
            return 0.0
        deg = g.total_degrees
        gap = int(deg.max()) * n - int(deg.sum())
        return gap / (2 * (n - 1) * (n - 2))

    @cached_property
    def transitivity(self) -> float:
        """Global clustering coefficient, 3 * triangles / connected triples,
        computed on the symmetrized graph.

        Each edge is oriented toward its higher (degree, id) end, so a triangle
        is found once, from its lowest vertex, as a pair of that vertex's
        oriented out-neighbours that are themselves joined.  The pairs are
        listed for a block of whole sources at a time: fewer than
        ``_CHUNK_BYTES // _PAIR_BYTES`` pairs plus those of the block's last
        source.  The d oriented out-neighbours of a source each have degree at
        least d, so d is at most sqrt(m) for the m symmetrized arcs, and one
        source has fewer than m / 2 pairs.  The triangle count is an integer,
        so the result does not depend on the blocks.
        """
        sym = symmetrize(self.graph)
        n = sym.n
        degrees = sym.out_degrees
        triples = int(np.sum(degrees * (degrees - 1) // 2))
        if triples == 0:
            return 0.0
        order = degrees * n + np.arange(n)
        src, dst = sym.arc_array.T
        up = order[src] < order[dst]
        src, dst = src[up], dst[up]
        codes = src * n + dst  # sorted: a subsequence of sym.codes
        # oriented arc a opens later[a] pairs (a, b), one per later arc b of its
        # source; a block starts at the first source whose pairs before it pass
        # a multiple of the block size
        later = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
        first = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        block = np.r_[0, np.cumsum(later)][first] // max(1, _CHUNK_BYTES // _PAIR_BYTES)
        cuts = np.r_[first[np.unique(block, return_index=True)[1]], len(src)]
        triangles = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            count = later[lo:hi]
            a = np.repeat(np.arange(lo, hi), count)
            b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
            v, w = dst[a], dst[b]
            closing = np.where(order[v] < order[w], v * n + w, w * n + v)
            triangles += _count_members(codes, closing)
        return 3 * triangles / triples

    def scalar_dict(self) -> dict:
        return {
            "n": self.n,
            "arc_count": self.arc_count,
            "diameter": self.diameter,
            "density": self.density,
            "avg_path_length": self.avg_path_length,
            "reciprocity": self.reciprocity,
            "assortativity": None if math.isnan(self.assortativity) else self.assortativity,
            "centralization": self.centralization,
            "transitivity": self.transitivity,
        }

    def __getitem__(self, kind: str) -> np.ndarray:
        """The centrality vector of ``kind``, as a distance context reads it."""
        if kind not in CENTRALITY_KINDS:
            raise KeyError(kind)
        return getattr(self, kind)

    # the keys are the kinds alone: a key test or the length reads no vector
    __contains__ = lambda self, kind: kind in CENTRALITY_KINDS
    __iter__ = lambda self: iter(CENTRALITY_KINDS)
    __len__ = lambda self: len(CENTRALITY_KINDS)

    def to_json_dict(self) -> dict:
        doc = self.scalar_dict()
        doc["degree"] = self.degree.tolist()
        doc["betweenness"] = self.betweenness.tolist()
        doc["closeness"] = self.closeness.tolist()
        doc["closeness_farness"] = self.closeness_farness.tolist()
        doc["pagerank"] = self.pagerank.tolist()
        return doc
