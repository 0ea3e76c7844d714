"""Centrality measures and scalar descriptors for directed graphs.

All shortest-path quantities are unweighted (hop counts) and directed, and
every one of them comes from a single sweep per graph: one BFS per source
with Brandes' dependency accumulation, reduced in the same pass to
betweenness, closeness, farness, diameter and average path length.
Betweenness ships in two modes: ``count`` sums raw numbers of shortest
paths passing through a vertex, ``fractional`` sums the usual pair
dependencies sigma_st(v)/sigma_st.  Closeness ships as
``reciprocal`` (reachable-count-1 over total distance) and ``farness``
(mean distance over the full vertex count).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph, symmetrize


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its tolerance."""


def _bfs(g: Graph, source: int):
    """BFS from source: visit order, hop distances, path counts, predecessors."""
    n = g.n
    dist = [-1] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1
    order = []
    queue = deque([source])
    out_adj = g.out_adj
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        sv = sigma[v]
        for w in out_adj[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
                preds[w].append(v)
    return order, dist, sigma, preds


def shortest_path_summary(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hop distances (inf when unreachable) and shortest-path counts."""
    n = g.n
    dist = np.full((n, n), np.inf)
    sigma = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        _, d, sig, _ = _bfs(g, s)
        for v in range(n):
            if d[v] >= 0:
                dist[s, v] = d[v]
                sigma[s, v] = sig[v]
    return dist, sigma


def degree_centrality(g: Graph, direction: str = "total") -> np.ndarray:
    if direction == "in":
        return g.in_degrees.astype(np.float64)
    if direction == "out":
        return g.out_degrees.astype(np.float64)
    if direction == "total":
        return g.total_degrees.astype(np.float64)
    raise ValueError(f"unknown degree direction {direction!r}")


@dataclass(frozen=True)
class _PathSweep:
    betweenness: np.ndarray
    closeness: np.ndarray
    farness: np.ndarray
    diameter: int
    avg_path_length: float


def _path_sweep(g: Graph, mode: str | None) -> _PathSweep:
    """One BFS per source, reduced to every shortest-path quantity.

    ``mode`` selects the betweenness accumulation (``count`` or
    ``fractional``); ``None`` skips it and leaves betweenness at zero.
    """
    n = g.n
    centrality = np.zeros(n)
    closeness = np.zeros(n)
    farness = np.zeros(n)
    diam = 0
    total = 0
    count = 0
    for s in range(n):
        order, dist, sigma, preds = _bfs(g, s)
        row_total = 0
        reach = 0
        for d in dist:
            if d > 0:
                row_total += d
                reach += 1
                if d > diam:
                    diam = d
        total += row_total
        count += reach
        closeness[s] = reach / row_total if row_total else 0.0
        farness[s] = row_total / n
        if mode is None:
            continue
        acc = [0.0] * n
        if mode == "count":
            # acc[v] counts shortest-path continuations below v in the DAG;
            # sigma[v] * acc[v] is the number of paths from s through v.
            for w in reversed(order):
                aw = acc[w] + 1.0
                for v in preds[w]:
                    acc[v] += aw
                if w != s:
                    centrality[w] += sigma[w] * acc[w]
        else:
            for w in reversed(order):
                coeff = (1.0 + acc[w]) / sigma[w]
                for v in preds[w]:
                    acc[v] += sigma[v] * coeff
                if w != s:
                    centrality[w] += acc[w]
    return _PathSweep(
        betweenness=centrality,
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
    return _path_sweep(g, mode).betweenness


def closeness_centrality(g: Graph, mode: str = "reciprocal") -> np.ndarray:
    """Closeness over the reachable set of each vertex.

    ``reciprocal``: (reachable count - 1) / sum of distances, 0 for vertices
    that reach nothing.  ``farness``: mean distance (1/n) * sum over reachable
    targets.
    """
    if mode not in ("reciprocal", "farness"):
        raise ValueError(f"unknown closeness mode {mode!r}")
    sweep = _path_sweep(g, None)
    return sweep.closeness if mode == "reciprocal" else sweep.farness


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
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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
    return _path_sweep(g, None).diameter


def avg_path_length(g: Graph) -> float:
    """Mean shortest-path length over reachable ordered pairs; 0 if none."""
    return _path_sweep(g, None).avg_path_length


def density(g: Graph) -> float:
    if g.n < 2:
        return 0.0
    return g.arc_count / (g.n * (g.n - 1))


def reciprocity(g: Graph) -> float:
    """Fraction of arcs whose reverse arc is also present."""
    if not g.arcs:
        return 0.0
    mutual = sum(1 for i, j in g.arcs if (j, i) in g.arcs)
    return mutual / g.arc_count


def assortativity(g: Graph) -> float:
    """Pearson correlation of (total degree of source, total degree of target)
    over arcs.  Returns NaN when either side has zero variance."""
    if g.n < 2 or not g.arcs:
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
    computed on the symmetrized graph."""
    sym = symmetrize(g)
    neighbors = [set(adj) for adj in sym.out_adj]
    und_deg = np.array([len(s) for s in neighbors], dtype=np.int64)
    triples = int(np.sum(und_deg * (und_deg - 1) // 2))
    if triples == 0:
        return 0.0
    closed = 0
    for i, j in sym.arcs:
        if i < j:
            closed += len(neighbors[i] & neighbors[j])
    # each triangle contributes one common neighbour per undirected edge
    return closed / triples


@dataclass(frozen=True)
class NetworkProfile:
    """Scalar descriptors plus the centrality vectors used for comparisons."""

    n: int
    arc_count: int
    diameter: int
    density: float
    avg_path_length: float
    reciprocity: float
    assortativity: float
    centralization: float
    transitivity: float
    degree: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray
    closeness_farness: np.ndarray
    pagerank: np.ndarray

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
        return {
            "degree": self.degree,
            "betweenness": self.betweenness,
            "closeness": self.closeness,
            "pagerank": self.pagerank,
        }

    def to_json_dict(self) -> dict:
        doc = self.scalar_dict()
        doc["degree"] = [float(v) for v in self.degree]
        doc["betweenness"] = [float(v) for v in self.betweenness]
        doc["closeness"] = [float(v) for v in self.closeness]
        doc["closeness_farness"] = [float(v) for v in self.closeness_farness]
        doc["pagerank"] = [float(v) for v in self.pagerank]
        return doc


def network_profile(g: Graph, damping: float = 0.85) -> NetworkProfile:
    """Compute every profile field with the default measure modes
    (total degree, count betweenness, reciprocal closeness)."""
    sweep = _path_sweep(g, "count")
    return NetworkProfile(
        n=g.n,
        arc_count=g.arc_count,
        diameter=sweep.diameter,
        density=density(g),
        avg_path_length=sweep.avg_path_length,
        reciprocity=reciprocity(g),
        assortativity=assortativity(g),
        centralization=freeman_centralization(g),
        transitivity=transitivity(g),
        degree=degree_centrality(g, "total"),
        betweenness=sweep.betweenness,
        closeness=sweep.closeness,
        closeness_farness=sweep.farness,
        pagerank=pagerank_centrality(g, damping=damping),
    )
