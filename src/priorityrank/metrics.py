"""Centrality measures and scalar descriptors for directed graphs.

All shortest-path quantities are unweighted (hop counts) and directed, and
every one of them comes from a single sweep per graph.  The sweep runs a
chunk of sources at once, level by level, over flat ``row * n + v`` cell
arrays and a CSR view of the arcs (the sparse-frontier BFS of Kepner &
Gilbert); Brandes' dependency accumulation then walks the stored levels
backwards.  A chunk holds as many sources as fit a byte budget at the
measured peak of about 32 * (n + m) bytes per source; the sweep's cost is
numpy calls per level, so fewer, larger chunks run faster.  Each chunk is
reduced in the same pass to betweenness, closeness, farness, diameter and
average path length.  Betweenness ships in two modes: ``count`` sums raw
numbers of shortest paths passing through a vertex, ``fractional`` sums
the usual pair dependencies sigma_st(v)/sigma_st.  Closeness ships as
``reciprocal`` (reachable-count-1 over total distance) and ``farness``
(mean distance over the full vertex count).

Count-mode betweenness is exact.  Path counts are integers, and float64
sums of integers are exact below 2**53, so the result does not depend on
how the sources are chunked.  A chunk whose path counts or betweenness
reach 2**53 is redone with Python integers, and the running betweenness
switches to them too.

``network_profile`` checks its arguments and returns a lazy view: each
field is computed on first read, at most once, so a caller pays only for
what it reads (``recreate`` scores a generated graph without its pagerank,
transitivity or assortativity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, symmetrize

# A chunk runs _CHUNK_BYTES // (c * (n + m)) sources, at least one, where c
# is the measured peak of a chunk in bytes per source and per vertex or arc.
# A chunk peaks at about c = 32: tracemalloc read 1.00-1.07 times that on
# ER, BA and DGM graphs (n=800-1095, 18-23 sources a chunk), and 1.55 times
# on a directed 600-cycle, whose hundreds of stored levels each carry fixed
# per-array overhead.
_CHUNK_BYTES = 2**22
_SOURCE_BYTES = 32
_EXACT_LIMIT = 2.0**53

CENTRALITY_KINDS = ("degree", "betweenness", "closeness", "pagerank")


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its tolerance."""


def _chunks(g: Graph) -> list[np.ndarray]:
    size = max(1, _CHUNK_BYTES // max(_SOURCE_BYTES * (g.n + g.arc_count), 1))
    return [np.arange(lo, min(lo + size, g.n)) for lo in range(0, g.n, size)]


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum ``weights`` into ``size`` bins; exact Python ints for object arrays."""
    if weights.dtype == object:
        out = np.zeros(size, dtype=object)
        np.add.at(out, index, weights)
        return out
    return np.bincount(index, weights=weights, minlength=size)


def _frontier_sweep(csr, sources: np.ndarray, dtype):
    """Level-synchronous BFS from every vertex of ``sources`` at once.

    Returns the flat hop distances ``dist[row * n + v]`` from
    ``sources[row]`` (-1 when unreachable) and one record per level: its
    cell keys, their shortest-path counts (of ``dtype``), and the arcs of
    the shortest-path DAG into the next level as (parent, child) positions
    within the two levels.
    """
    starts, degrees, indices = csr
    n = len(starts)
    cells = len(sources) * n
    dist = np.full(cells, -1, dtype=np.int64)
    slot = np.empty(cells, dtype=np.int64)  # position of a cell within its level
    keys = np.arange(len(sources)) * n + sources
    dist[keys] = 0
    sigma = np.ones(len(keys), dtype=dtype)
    levels = []
    depth = 0
    while keys.size:
        v = keys % n
        deg = degrees[v]
        parent = np.repeat(np.arange(keys.size), deg)
        # each expanded pair's arc: its parent's first arc plus its rank there
        arc = np.arange(parent.size) + (starts[v] - np.cumsum(deg) + deg)[parent]
        child = (keys - v)[parent] + indices[arc]
        fresh = dist[child] < 0
        parent, child = parent[fresh], child[fresh]
        # one position per distinct child, whichever duplicate's write lands
        ordinal = np.arange(child.size)
        slot[child] = ordinal
        following = child[slot[child] == ordinal]
        depth += 1
        dist[following] = depth
        slot[following] = np.arange(following.size)
        child = slot[child]
        levels.append((keys, sigma, parent, child))
        sigma = _scatter(child, sigma[parent], following.size)
        keys = following
    return dist, levels


def _exact(levels, *sums: np.ndarray) -> bool:
    """Whether every path count and every sum is below 2**53, where float64
    still holds integers exactly."""
    arrays = [sigma for _, sigma, _, _ in levels] + list(sums)
    return all(not a.size or a.max() < _EXACT_LIMIT for a in arrays)


def _chunk_betweenness(levels, n: int, mode: str) -> np.ndarray:
    """Brandes' accumulation over the stored levels, deepest first, summed
    over the chunk's sources."""
    dtype = levels[0][1].dtype
    acc = next_sigma = np.zeros(0, dtype=dtype)
    cells = [np.zeros(0, dtype=np.int64)]
    through = [np.zeros(0, dtype=dtype)]
    for depth in range(len(levels) - 1, -1, -1):
        keys, sigma, parent, child = levels[depth]
        if mode == "count":
            # acc counts shortest-path continuations below a cell; sigma * acc
            # is the number of paths from the source through it.
            acc = _scatter(parent, (acc + 1)[child], keys.size)
            paths = sigma * acc
        else:
            acc = sigma * _scatter(parent, ((1.0 + acc) / next_sigma)[child], keys.size)
            paths = acc
        next_sigma = sigma
        if depth:
            cells.append(keys)
            through.append(paths)
    return _scatter(np.concatenate(cells) % n, np.concatenate(through), n)


def _add_counts(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``total + part`` for count betweenness; Python ints once either
    operand holds them or a sum reaches 2**53."""
    summed = total + part
    if summed.dtype == object or not _exact((), summed):
        summed = np.array([int(a) + int(b) for a, b in zip(total, part)], dtype=object)
    return summed


def degree_centrality(g: Graph, direction: str = "total") -> np.ndarray:
    if direction == "in":
        return g.in_degrees.astype(np.float64)
    if direction == "out":
        return g.out_degrees.astype(np.float64)
    if direction == "total":
        return g.total_degrees.astype(np.float64)
    raise ValueError(f"unknown degree direction {direction!r}")


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
    n = g.n
    csr = g.csr
    centrality = np.zeros(n)
    closeness = np.zeros(n)
    farness = np.zeros(n)
    diam = 0
    total = 0
    count = 0
    for sources in _chunks(g):
        dist, levels = _frontier_sweep(csr, sources, np.float64)
        part = _chunk_betweenness(levels, n, mode)
        if mode == "count" and not _exact(levels, part):
            dist, levels = _frontier_sweep(csr, sources, object)
            part = _chunk_betweenness(levels, n, mode)
        centrality = _add_counts(centrality, part) if mode == "count" else centrality + part
        rows = dist.reshape(len(sources), n)
        reached = rows > 0
        reach = reached.sum(axis=1)
        row_total = np.where(reached, rows, 0).sum(axis=1)
        closeness[sources] = np.divide(
            reach, row_total, out=np.zeros(len(sources)), where=row_total > 0
        )
        farness[sources] = row_total / n
        diam = max(diam, int(rows.max()))
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
    if mode not in ("count", "fractional"):
        raise ValueError(f"unknown betweenness mode {mode!r}")
    return path_sweep(g, mode).betweenness


def closeness_centrality(g: Graph, mode: str = "reciprocal") -> np.ndarray:
    """Closeness over the reachable set of each vertex.

    ``reciprocal``: (reachable count - 1) / sum of distances, 0 for vertices
    that reach nothing.  ``farness``: mean distance (1/n) * sum over reachable
    targets.
    """
    if mode not in ("reciprocal", "farness"):
        raise ValueError(f"unknown closeness mode {mode!r}")
    sweep = path_sweep(g, "count")
    return sweep.closeness if mode == "reciprocal" else sweep.farness


def _check_damping(damping: float) -> None:
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")


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
    _check_damping(damping)
    # written so that NaN fails too
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
        contrib = x[src] / safe_out[src] if len(src) else np.zeros(0)
        incoming = np.bincount(dst, weights=contrib, minlength=n) if len(src) else np.zeros(n)
        dangling_mass = float(x[dangling].sum())
        x_new = damping * (incoming + dangling_mass / n) + base
        residual = float(np.abs(x_new - x).sum())
        x = x_new
        if residual < tol:
            return x
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (residual {residual:.3e})"
    )


def diameter(g: Graph) -> int:
    """Longest shortest path over reachable ordered pairs; 0 if none."""
    return path_sweep(g, "count").diameter


def avg_path_length(g: Graph) -> float:
    """Mean shortest-path length over reachable ordered pairs; 0 if none."""
    return path_sweep(g, "count").avg_path_length


def density(g: Graph) -> float:
    if g.n < 2:
        return 0.0
    return g.arc_count / (g.n * (g.n - 1))


def _count_members(codes: np.ndarray, queries: np.ndarray) -> int:
    """How many ``queries`` occur in the sorted, non-empty ``codes``."""
    pos = np.minimum(np.searchsorted(codes, queries), len(codes) - 1)
    return int(np.count_nonzero(codes[pos] == queries))


def reciprocity(g: Graph) -> float:
    """Fraction of arcs whose reverse arc is also present."""
    if not g.arc_count:
        return 0.0
    src, dst = g.arc_array.T
    return _count_members(g.codes, dst * g.n + src) / g.arc_count


def assortativity(g: Graph) -> float:
    """Pearson correlation of (total degree of source, total degree of target)
    over arcs.  Returns NaN when either side has zero variance."""
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


def freeman_centralization(g: Graph) -> float:
    """Degree centralization: total gap to the maximum total degree,
    normalized by the largest gap attainable in a simple directed graph
    (a bidirectional star), 2(n-1)(n-2)."""
    n = g.n
    if n < 3:
        return 0.0
    deg = g.total_degrees
    gap = int(deg.max()) * n - int(deg.sum())
    return gap / (2 * (n - 1) * (n - 2))


def transitivity(g: Graph) -> float:
    """Global clustering coefficient, 3 * triangles / connected triples,
    computed on the symmetrized graph.

    Each edge is oriented toward its higher (degree, id) end, so a triangle
    is found once, from its lowest vertex, as a pair of that vertex's
    oriented out-neighbours that are themselves joined.
    """
    sym = symmetrize(g)
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
    # every pair (a, b) of positions a < b within one source's oriented arcs
    later = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
    a = np.repeat(np.arange(len(src)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    v, w = dst[a], dst[b]
    closing = np.where(order[v] < order[w], v * n + w, w * n + v)
    triangles = _count_members(codes, closing)
    return 3 * triangles / triples


@dataclass(frozen=True)
class NetworkProfile:
    """Scalar descriptors of one graph plus the centrality vectors used for
    comparisons, with the default measure modes (total degree, count
    betweenness, reciprocal closeness).

    The profile is a lazy view: each field is computed on first read, at
    most once, and the shortest-path fields share one count-mode sweep.
    """

    graph: Graph
    damping: float = 0.85

    def __post_init__(self):
        _check_damping(self.damping)

    n = property(lambda self: self.graph.n)
    arc_count = property(lambda self: self.graph.arc_count)
    _sweep = cached_property(lambda self: path_sweep(self.graph, "count"))
    diameter = property(lambda self: self._sweep.diameter)
    avg_path_length = property(lambda self: self._sweep.avg_path_length)
    betweenness = property(lambda self: self._sweep.betweenness)
    closeness = property(lambda self: self._sweep.closeness)
    closeness_farness = property(lambda self: self._sweep.farness)
    # each lambda below calls the module-level function, not the field
    degree = cached_property(lambda self: degree_centrality(self.graph, "total"))
    pagerank = cached_property(lambda self: pagerank_centrality(self.graph, self.damping))
    density = cached_property(lambda self: density(self.graph))
    reciprocity = cached_property(lambda self: reciprocity(self.graph))
    assortativity = cached_property(lambda self: assortativity(self.graph))
    centralization = cached_property(lambda self: freeman_centralization(self.graph))
    transitivity = cached_property(lambda self: transitivity(self.graph))

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

    def centralities(self) -> dict[str, np.ndarray]:
        """The centrality vectors by kind, as a distance context reads them."""
        return {kind: getattr(self, kind) for kind in CENTRALITY_KINDS}

    def to_json_dict(self) -> dict:
        doc = self.scalar_dict()
        doc["degree"] = [float(v) for v in self.degree]
        doc["betweenness"] = [float(v) for v in self.betweenness]
        doc["closeness"] = [float(v) for v in self.closeness]
        doc["closeness_farness"] = [float(v) for v in self.closeness_farness]
        doc["pagerank"] = [float(v) for v in self.pagerank]
        return doc


def network_profile(g: Graph, damping: float = 0.85) -> NetworkProfile:
    """The lazy profile of ``g``; ``damping`` is checked now, although
    pagerank runs only when first read."""
    return NetworkProfile(g, damping)
